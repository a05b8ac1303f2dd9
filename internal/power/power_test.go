package power

import (
	"math"
	"slices"
	"sync"
	"testing"

	"legato/internal/energy"
	"legato/internal/hw"
)

// pointOf returns the operating point l prescribes for device id, as
// Shape reports it.
func pointOf(l *Ledger, id string) int {
	cores, points := make([]int, 1), make([]int, 1)
	l.Shape([]*hw.Device{{ID: id}}, cores, points)
	return points[0]
}

// drawOf returns device id's draw, as Read reports it.
func drawOf(l *Ledger, id string) energy.Watts {
	ids := l.Devices()
	draws := make([]energy.Watts, len(ids))
	l.Read(draws)
	return draws[slices.Index(ids, id)]
}

func testDevices(t *testing.T) []*hw.Device {
	t.Helper()
	specA := hw.Spec{
		Name: "cpu", Class: hw.CPUx86, Cores: 8, GOPS: 100,
		IdleWatts: 10, PeakWatts: 50,
		States: []hw.DVFSState{
			{Name: "nominal", FreqGHz: 2.0, Voltage: 1.0},
			{Name: "eco", FreqGHz: 1.0, Voltage: 0.8},
		},
	}
	specB := hw.Spec{
		Name: "fpga", Class: hw.FPGA, Cores: 4, GOPS: 200,
		IdleWatts: 5, PeakWatts: 25,
	}
	return []*hw.Device{
		{ID: "cpu0", Spec: specA},
		{ID: "fpga0", Spec: specB},
	}
}

func TestLadderFor(t *testing.T) {
	devs := testDevices(t)
	l := LadderFor("cpu0", devs[0].Spec)
	if len(l.Points) != 2 {
		t.Fatalf("ladder has %d points, want 2", len(l.Points))
	}
	nom := l.Points[0]
	if nom.SpeedScale != 1 || nom.PowerScale != 1 {
		t.Fatalf("nominal point scales = (%v, %v), want (1, 1)", nom.SpeedScale, nom.PowerScale)
	}
	eco := l.Points[1]
	if eco.SpeedScale != 0.5 {
		t.Fatalf("eco speed scale = %v, want 0.5 (1.0/2.0 GHz)", eco.SpeedScale)
	}
	// f·V² scaling: 0.5 × 0.8².
	if math.Abs(eco.PowerScale-0.5*0.64) > 1e-12 {
		t.Fatalf("eco power scale = %v, want 0.32", eco.PowerScale)
	}
	// A spec without explicit states resolves to a single nominal point.
	fl := LadderFor("fpga0", devs[1].Spec)
	if len(fl.Points) != 1 || fl.Points[0].SpeedScale != 1 {
		t.Fatalf("stateless spec ladder = %+v, want one nominal point", fl.Points)
	}
}

func TestUndervoltModel(t *testing.T) {
	if UndervoltVoltageScale(0) != 1 || UndervoltPowerScale(0) != 1 || SDCProbability(0) != 0 {
		t.Fatal("guardband level must be free of both savings and risk")
	}
	for lvl := 1; lvl <= MaxUndervolt; lvl++ {
		v := UndervoltVoltageScale(lvl)
		if v >= UndervoltVoltageScale(lvl-1) {
			t.Fatalf("voltage scale not decreasing at level %d", lvl)
		}
		if got, want := UndervoltPowerScale(lvl), v*v; math.Abs(got-want) > 1e-12 {
			t.Fatalf("power scale at level %d = %v, want v² = %v", lvl, got, want)
		}
		if SDCProbability(lvl) <= SDCProbability(lvl-1) {
			t.Fatalf("SDC probability not increasing at level %d", lvl)
		}
	}
	// Levels beyond the maximum clamp rather than extrapolate.
	if SDCProbability(MaxUndervolt+5) != SDCProbability(MaxUndervolt) {
		t.Fatal("SDC probability not clamped above MaxUndervolt")
	}
	if UndervoltPowerScale(MaxUndervolt+5) != UndervoltPowerScale(MaxUndervolt) {
		t.Fatal("power scale not clamped above MaxUndervolt")
	}
}

func TestLedgerCapWitness(t *testing.T) {
	devs := testDevices(t) // idle 10 + 5 = 15 W
	l := NewLedger(40, devs, RaceToIdle)
	if got := l.Draw(); got != 15 {
		t.Fatalf("initial draw = %v, want the 15 W idle floor", got)
	}
	if l.Claim("cpu0", 0, 20) != Granted {
		t.Fatal("draw within cap refused")
	}
	// 15 + 20 + 10 > 40: must refuse and count a stall.
	if l.Claim("fpga0", 0, 10) == Granted {
		t.Fatal("draw over cap granted")
	}
	if r := l.Read(nil); r.WattStalls != 1 {
		t.Fatalf("stalls = %d, want 1", r.WattStalls)
	}
	if l.Claim("fpga0", 0, 5) != Granted {
		t.Fatal("draw exactly at cap refused")
	}
	if got := l.Read(nil).PeakDraw; got != 40 {
		t.Fatalf("peak draw = %v, want 40", got)
	}
	if l.Read(nil).PeakDraw > l.Cap() {
		t.Fatal("peak-draw witness violated")
	}
	l.Release("cpu0", 0, 20)
	l.Release("fpga0", 0, 5)
	if got := l.Draw(); got != 15 {
		t.Fatalf("draw after release = %v, want 15", got)
	}
	// RaceToIdle never reshapes operating points.
	if l.Read(nil).Rescales != 0 || pointOf(l, "cpu0") != 0 {
		t.Fatal("race-to-idle governor rescaled a device")
	}
}

func TestLedgerUncapped(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(0, devs, RaceToIdle)
	if l.Capped() {
		t.Fatal("zero cap must mean uncapped")
	}
	if l.Claim("cpu0", 0, 1e9) != Granted {
		t.Fatal("uncapped ledger refused a draw")
	}
}

func TestLedgerWakeOnRelease(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, RaceToIdle)
	if l.Claim("cpu0", 0, 25) != Granted {
		t.Fatal("draw refused")
	}
	ch := l.Changed()
	select {
	case <-ch:
		t.Fatal("generation channel closed early")
	default:
	}
	l.Release("cpu0", 0, 25)
	select {
	case <-ch:
	default:
		t.Fatal("release did not wake the generation channel")
	}
}

func TestLedgerDeviceLost(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, RaceToIdle)
	if l.Claim("cpu0", 0, 20) != Granted {
		t.Fatal("draw refused")
	}
	ch := l.Changed()
	l.Fail("cpu0")
	select {
	case <-ch:
	default:
		t.Fatal("device loss did not wake parked jobs")
	}
	// Idle (10) and granted dynamic (20) both released: only fpga idle left.
	if got := l.Draw(); got != 5 {
		t.Fatalf("draw after loss = %v, want 5", got)
	}
	if !l.Lost("cpu0") || drawOf(l, "cpu0") != 0 {
		t.Fatal("lost device still charged")
	}
	// Late revocations (jobs crossing the crash on private clocks) must not
	// double-release.
	l.Release("cpu0", 0, 20)
	if got := l.Draw(); got != 5 {
		t.Fatalf("draw after late release = %v, want 5 (no double release)", got)
	}
	if l.Claim("cpu0", 0, 1) == Granted {
		t.Fatal("draw granted on a lost device")
	}
	// A second loss of the same device is a no-op.
	if l.Fail("cpu0") {
		t.Fatal("second Fail reported a removal")
	}
	if got := l.Draw(); got != 5 {
		t.Fatalf("draw after repeated loss = %v, want 5", got)
	}
}

func TestPackAndThrottleGovernor(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, PackAndThrottle)
	if l.Claim("cpu0", 0, 24) != Granted {
		t.Fatal("draw refused")
	}
	// Refusal steps the target device down its ladder.
	if l.Claim("cpu0", 0, 10) == Granted {
		t.Fatal("draw over cap granted")
	}
	if pointOf(l, "cpu0") != 1 {
		t.Fatalf("cpu0 operating point = %d after refusal, want 1 (eco)", pointOf(l, "cpu0"))
	}
	if r := l.Read(nil); r.Rescales != 1 {
		t.Fatalf("rescales = %d, want 1", r.Rescales)
	}
	// The fpga has no lower rung, so a refusal on it throttles the
	// hungriest throttleable sibling — but cpu0 is already at its floor,
	// so the ladder stays put.
	if l.Claim("fpga0", 0, 10) == Granted {
		t.Fatal("draw over cap granted")
	}
	if pointOf(l, "fpga0") != 0 {
		t.Fatal("stateless device was stepped below its only point")
	}
	// Releasing far below the 70% hysteresis threshold steps cpu0 back up.
	l.Release("cpu0", 0, 24)
	if pointOf(l, "cpu0") != 0 {
		t.Fatalf("cpu0 operating point = %d after relaxation, want 0 (nominal)", pointOf(l, "cpu0"))
	}
}

// TestFleetLedger: cores are claimed without oversubscription, a refusal
// counts a core stall, and a release wakes parked jobs.
func TestFleetLedger(t *testing.T) {
	f := NewLedger(0, testDevices(t), RaceToIdle)
	if f.Claim("cpu0", 8, 0) != Granted {
		t.Fatal("full acquire refused")
	}
	if f.Claim("cpu0", 1, 0) == Granted {
		t.Fatal("oversubscription allowed")
	}
	if r := f.Read(nil); r.CoreStalls != 1 {
		t.Fatalf("stalls = %d, want 1", r.CoreStalls)
	}
	ch := f.Changed()
	select {
	case <-ch:
		t.Fatal("Changed closed before any release")
	default:
	}
	f.Release("cpu0", 8, 0)
	select {
	case <-ch:
	default:
		t.Fatal("release did not signal Changed")
	}
	if f.Peak("cpu0") != 8 || f.InUse("cpu0") != 0 {
		t.Fatalf("peak=%d inuse=%d", f.Peak("cpu0"), f.InUse("cpu0"))
	}
	if f.Claim("ghost", 1, 0) == Granted {
		t.Fatal("unknown device admitted")
	}
}

// TestFleetReacquire: a resuming job's grants are claimed all or none, and
// a grant on a device that shrank below it comes back as a deficit.
func TestFleetReacquire(t *testing.T) {
	devs := testDevices(t) // cpu0, fpga0
	f := NewLedger(0, devs, RaceToIdle)
	if f.Claim("fpga0", 3, 0) != Granted {
		t.Fatal("acquire refused")
	}
	if f.Reacquire(devs, []int{8, 2}) {
		t.Fatal("reacquire succeeded past a busy device")
	}
	if r := f.Read(nil); f.InUse("cpu0") != 0 || r.CoreStalls != 1 {
		t.Fatalf("failed reacquire left cpu in use %d, stalls %d", f.InUse("cpu0"), r.CoreStalls)
	}
	if !f.Reacquire(devs, []int{8, 1}) {
		t.Fatal("reacquire refused with room on both devices")
	}
	if f.InUse("cpu0") != 8 || f.InUse("fpga0") != 4 || f.Peak("fpga0") != 4 {
		t.Fatalf("in use cpu %d fpga %d, fpga peak %d", f.InUse("cpu0"), f.InUse("fpga0"), f.Peak("fpga0"))
	}
	f.Release("cpu0", 8, 0)
	f.SetCapacity("cpu0", 2)
	if !f.Reacquire(devs, []int{5, 0}) {
		t.Fatal("grant larger than the shrunk device refused")
	}
	if f.InUse("cpu0") != 5 || f.Peak("cpu0") > f.Capacity("cpu0") {
		t.Fatalf("deficit grant: in use %d, peak %d of %d", f.InUse("cpu0"), f.Peak("cpu0"), f.Capacity("cpu0"))
	}
	if f.Claim("cpu0", 1, 0) == Granted {
		t.Fatal("admitted into a deficit")
	}

	// A sibling filled the device while the job was parked, then the
	// device shrank: the job's larger grant waits for the sibling, and then
	// leaves the deficit the job would have had by keeping its grant.
	f.Release("cpu0", 5, 0)
	f.SetCapacity("cpu0", 8)
	if f.Claim("cpu0", 8, 0) != Granted {
		t.Fatal("sibling acquire refused")
	}
	f.SetCapacity("cpu0", 4)
	if f.Reacquire(devs, []int{6, 0}) {
		t.Fatalf("over-capacity grant claimed beside a sibling: %d in use of %d", f.InUse("cpu0"), f.Capacity("cpu0"))
	}
	f.Release("cpu0", 8, 0)
	if !f.Reacquire(devs, []int{6, 0}) {
		t.Fatal("over-capacity grant refused on a device no sibling holds")
	}
	if f.InUse("cpu0") != 6 || f.Peak("cpu0") != f.Capacity("cpu0") {
		t.Fatalf("deficit grant: in use %d, peak %d of %d", f.InUse("cpu0"), f.Peak("cpu0"), f.Capacity("cpu0"))
	}
}

// A mid-session capacity shrink may leave more cores granted than the new
// capacity allows. The ledger carries the deficit: admissions fail until
// releases pay it down, no Release ever panics, and the oversubscription
// witness Peak(id) ≤ Capacity(id) holds against the *current* capacity.
func TestFleetCapacityShrinkDeficit(t *testing.T) {
	f := NewLedger(0, testDevices(t), RaceToIdle)

	if f.Claim("cpu0", 6, 0) != Granted {
		t.Fatal("initial acquire refused")
	}
	f.SetCapacity("cpu0", 4) // 6 granted on a 4-core budget: deficit of 2
	if f.Peak("cpu0") > f.Capacity("cpu0") {
		t.Fatalf("peak %d exceeds shrunk capacity %d", f.Peak("cpu0"), f.Capacity("cpu0"))
	}
	if f.Claim("cpu0", 1, 0) == Granted {
		t.Fatal("admission succeeded while the device is in deficit")
	}
	f.Release("cpu0", 3, 0) // pays the deficit down to 1 free... of 4
	if f.Claim("cpu0", 2, 0) == Granted {
		t.Fatal("admission exceeded post-shrink capacity")
	}
	if f.Claim("cpu0", 1, 0) != Granted {
		t.Fatal("admission refused despite free post-shrink capacity")
	}
	f.Release("cpu0", 4, 0) // returns the remaining grants: 3 old + 1 new
	if f.InUse("cpu0") != 0 {
		t.Fatalf("in-use %d after all releases, want 0", f.InUse("cpu0"))
	}
	if f.Peak("cpu0") > f.Capacity("cpu0") {
		t.Fatalf("final peak %d > capacity %d", f.Peak("cpu0"), f.Capacity("cpu0"))
	}
}

// Fail and SetCapacity must wake admission waiters just like Release does —
// a parked job that missed the wakeup would deadlock the session.
func TestFleetFailSignalsWaiters(t *testing.T) {
	f := NewLedger(0, testDevices(t), RaceToIdle)

	ch := f.Changed()
	if !f.Fail("fpga0") {
		t.Fatal("first Fail reported the device already gone")
	}
	select {
	case <-ch:
	default:
		t.Fatal("Fail did not signal Changed")
	}
	if !f.Lost("fpga0") || f.Capacity("fpga0") != 0 {
		t.Fatalf("lost=%v cap=%d after Fail", f.Lost("fpga0"), f.Capacity("fpga0"))
	}
	ch = f.Changed()
	f.SetCapacity("cpu0", 4)
	select {
	case <-ch:
	default:
		t.Fatal("SetCapacity did not signal Changed")
	}
	// Fail is idempotent: a second call must not re-shrink or signal twice.
	ch = f.Changed()
	if f.Fail("fpga0") || f.Fail("ghost") {
		t.Fatal("Fail of a lost or unknown device reported a removal")
	}
	select {
	case <-ch:
		t.Fatal("repeated Fail signalled again")
	default:
	}
	// A degrade landing after the loss cannot give the device cores back.
	f.SetCapacity("fpga0", 2)
	if f.Capacity("fpga0") != 0 {
		t.Fatalf("lost device resized to %d cores", f.Capacity("fpga0"))
	}
}

// A claim judges cores first, then watts, and a refusal on either budget
// leaves the other untouched. A watt refusal takes no cores: InUse and the
// core Peak stay put, and one watt stall is counted. A core refusal never
// reaches the watt budget: no watt stall, no draw, no governor step.
func TestClaimRefusalTouchesOneBudget(t *testing.T) {
	l := NewLedger(40, testDevices(t), PackAndThrottle) // idle 15 W
	if l.Claim("cpu0", 2, 10) != Granted {
		t.Fatal("claim within both budgets refused")
	}
	inUse, peak, draw := l.InUse("cpu0"), l.Peak("cpu0"), l.Draw()

	if v := l.Claim("cpu0", 4, 20); v != NoWatts { // 15 + 10 + 20 > 40
		t.Fatalf("over-cap claim = %v, want NoWatts", v)
	}
	if l.InUse("cpu0") != inUse || l.Peak("cpu0") != peak {
		t.Fatalf("watt refusal moved cores: in use %d → %d, peak %d → %d",
			inUse, l.InUse("cpu0"), peak, l.Peak("cpu0"))
	}
	if r := l.Read(nil); r.WattStalls != 1 || r.CoreStalls != 0 {
		t.Fatalf("watt refusal counted %d watt and %d core stalls, want 1 and 0", r.WattStalls, r.CoreStalls)
	}
	if l.Draw() != draw {
		t.Fatalf("watt refusal changed the draw: %v → %v", draw, l.Draw())
	}

	points := map[string]int{}
	for _, id := range l.Devices() {
		points[id] = pointOf(l, id)
	}
	rescales := l.Read(nil).Rescales
	if v := l.Claim("cpu0", 7, 1); v != NoCores { // 2 of 8 cores in use
		t.Fatalf("oversubscribing claim = %v, want NoCores", v)
	}
	if r := l.Read(nil); r.WattStalls != 1 || r.CoreStalls != 1 {
		t.Fatalf("core refusal counted %d watt and %d core stalls, want 1 and 1", r.WattStalls, r.CoreStalls)
	}
	if l.Draw() != draw || l.Read(nil).Rescales != rescales {
		t.Fatalf("core refusal reached the watt budget: draw %v → %v, rescales %d → %d",
			draw, l.Draw(), rescales, l.Read(nil).Rescales)
	}
	for id, p := range points {
		if pointOf(l, id) != p {
			t.Fatalf("core refusal stepped %s from point %d to %d", id, p, pointOf(l, id))
		}
	}
	if l.InUse("cpu0") != inUse || l.Peak("cpu0") != peak {
		t.Fatalf("core refusal moved cores: in use %d, peak %d", l.InUse("cpu0"), l.Peak("cpu0"))
	}
}

func TestFleetPeakWatts(t *testing.T) {
	devs := testDevices(t)
	if got := FleetPeakWatts(devs); got != energy.Watts(75) {
		t.Fatalf("fleet peak = %v, want 75 (50 + 25)", got)
	}
}

// checkDraw fails unless the lock-free Draw equals the idle floor of the
// surviving devices plus the dynamic watts granted and not yet released.
func checkDraw(t *testing.T, l *Ledger, devs []*hw.Device, granted energy.Watts) {
	t.Helper()
	want := granted
	for _, d := range devs {
		if !l.Lost(d.ID) {
			want += d.Spec.IdleWatts
		}
	}
	if got := l.Draw(); got != want || got != l.Read(nil).Draw {
		t.Fatalf("draw = %v (locked read %v), want %v", got, l.Read(nil).Draw, want)
	}
}

// TestLedgerEpochTracksShape: the shape epoch moves on every capacity or
// operating-point change and on nothing else, and Shape then returns the
// new values; an unknown device reads as zero cores at the nominal point.
func TestLedgerEpochTracksShape(t *testing.T) {
	devs := testDevices(t) // cpu0: 8 cores, 2 points; fpga0: 4 cores, 1 point
	l := NewLedger(40, devs, PackAndThrottle)
	ghost := &hw.Device{ID: "ghost", Spec: devs[0].Spec}
	shapeDevs := append(append([]*hw.Device(nil), devs...), ghost)
	epoch := l.Epoch()
	step := func(what string, moves bool, cores, points []int) {
		t.Helper()
		e := l.Epoch()
		if moved := e != epoch; moved != moves {
			t.Fatalf("%s: epoch %d → %d, want moved=%v", what, epoch, e, moves)
		}
		epoch = e
		gotCores, gotPoints := make([]int, 3), make([]int, 3)
		if se := l.Shape(shapeDevs, gotCores, gotPoints); se != e {
			t.Fatalf("%s: Shape epoch %d, Epoch %d", what, se, e)
		}
		for i, d := range shapeDevs {
			if gotCores[i] != cores[i] || gotPoints[i] != points[i] {
				t.Fatalf("%s: %s shape (%d cores, point %d), want (%d, %d)",
					what, d.ID, gotCores[i], gotPoints[i], cores[i], points[i])
			}
			if gotCores[i] != l.Capacity(d.ID) {
				t.Fatalf("%s: %s Shape disagrees with Capacity", what, d.ID)
			}
		}
	}
	step("construction", false, []int{8, 4, 0}, []int{0, 0, 0})
	checkDraw(t, l, devs, 0)

	// Grants and releases that reshape nothing: the uncapped fast path.
	if l.Claim("cpu0", 2, 10) != Granted {
		t.Fatal("claim within both budgets refused")
	}
	checkDraw(t, l, devs, 10)
	step("claim", false, []int{8, 4, 0}, []int{0, 0, 0})
	l.Release("cpu0", 2, 10)
	checkDraw(t, l, devs, 0)
	step("release", false, []int{8, 4, 0}, []int{0, 0, 0})
	if l.Claim("cpu0", 9, 0) != NoCores {
		t.Fatal("oversubscribing claim granted")
	}
	step("core refusal", false, []int{8, 4, 0}, []int{0, 0, 0})

	// PackAndThrottle step-down on a watt refusal, then no step at the floor.
	if l.Claim("cpu0", 0, 24) != Granted {
		t.Fatal("draw within cap refused")
	}
	checkDraw(t, l, devs, 24)
	if l.Claim("cpu0", 0, 10) != NoWatts {
		t.Fatal("draw over cap granted")
	}
	checkDraw(t, l, devs, 24)
	step("step-down", true, []int{8, 4, 0}, []int{1, 0, 0})
	if l.Claim("fpga0", 0, 10) != NoWatts {
		t.Fatal("draw over cap granted")
	}
	step("refusal at the floor", false, []int{8, 4, 0}, []int{1, 0, 0})

	// Hysteresis step-up once the release relaxes the draw.
	l.Release("cpu0", 0, 24)
	checkDraw(t, l, devs, 0)
	step("step-up", true, []int{8, 4, 0}, []int{0, 0, 0})

	l.SetCapacity("cpu0", 4)
	checkDraw(t, l, devs, 0)
	step("SetCapacity", true, []int{4, 4, 0}, []int{0, 0, 0})
	if l.Claim("fpga0", 1, 5) != Granted {
		t.Fatal("claim on fpga0 refused")
	}
	checkDraw(t, l, devs, 5)
	if !l.Fail("fpga0") {
		t.Fatal("Fail reported fpga0 already gone")
	}
	checkDraw(t, l, devs, 0)
	step("Fail", true, []int{4, 0, 0}, []int{0, 0, 0})
	// A late revocation of the lost grant changes neither shape nor draw.
	l.Release("fpga0", 1, 5)
	checkDraw(t, l, devs, 0)
	step("late release", false, []int{4, 0, 0}, []int{0, 0, 0})
}

// TestLedgerLockFreeReadsRace runs the lock-free readers against every
// writer at once; run it under -race. Readers check that Shape's epoch
// never runs behind an earlier Epoch, that its values stay in range and
// that the draw never exceeds the cap.
func TestLedgerLockFreeReadsRace(t *testing.T) {
	devs := testDevices(t)
	l := NewLedger(40, devs, PackAndThrottle)
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			cores, points := make([]int, len(devs)), make([]int, len(devs))
			for {
				select {
				case <-stop:
					return
				case <-l.Changed():
				default:
				}
				e := l.Epoch()
				if se := l.Shape(devs, cores, points); se < e {
					t.Errorf("Shape epoch %d behind an earlier Epoch %d", se, e)
					return
				}
				if cores[0] > 8 || cores[1] > 4 || points[0] > 1 || points[1] != 0 {
					t.Errorf("shape out of range: cores %v, points %v", cores, points)
					return
				}
				if d := l.Draw(); d > l.Cap() {
					t.Errorf("draw %v over the %v W cap", d, l.Cap())
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				// 15 W idle + 2 × 15 W dynamic > 40 W: claims race into
				// refusals, and the governor steps cpu0 down and back up.
				if l.Claim("cpu0", 1, 15) == Granted {
					l.Release("cpu0", 1, 15)
				}
			}
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 500; i++ {
			l.SetCapacity("cpu0", 6+i%3)
		}
		l.Fail("fpga0")
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	checkDraw(t, l, devs, 0)
}

// benchLedger is an uncapped ledger over one device wide enough that no
// parallel claimer is ever refused for cores.
func benchLedger() *Ledger {
	spec := hw.Spec{Name: "cpu", Class: hw.CPUx86, Cores: 1 << 16, GOPS: 100, IdleWatts: 10, PeakWatts: 50}
	return NewLedger(0, []*hw.Device{{ID: "cpu0", Spec: spec}}, RaceToIdle)
}

// BenchmarkLedgerClaimRelease times one granted Claim plus its Release,
// alone and with every P claiming at once. Each Release wakes parked jobs
// by replacing the generation channel: one allocation per op.
func BenchmarkLedgerClaimRelease(b *testing.B) {
	b.Run("uncontended", func(b *testing.B) {
		l := benchLedger()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if l.Claim("cpu0", 1, 1) != Granted {
				b.Fatal("claim refused")
			}
			l.Release("cpu0", 1, 1)
		}
	})
	b.Run("contended", func(b *testing.B) {
		l := benchLedger()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if l.Claim("cpu0", 1, 1) != Granted {
					b.Error("claim refused")
					return
				}
				l.Release("cpu0", 1, 1)
			}
		})
	})
}

var (
	sinkEpoch uint64
	sinkDraw  energy.Watts
	sinkGen   <-chan struct{}
)

// BenchmarkLedgerReads times the reads a job makes on every dispatch round
// or event: the shape epoch, the fleet draw and the generation channel.
func BenchmarkLedgerReads(b *testing.B) {
	l := benchLedger()
	b.Run("Epoch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEpoch = l.Epoch()
		}
	})
	b.Run("Draw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkDraw = l.Draw()
		}
	})
	b.Run("Changed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkGen = l.Changed()
		}
	})
}
