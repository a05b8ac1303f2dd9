package legato

import (
	"context"
	"strings"
	"testing"

	"legato/internal/hw"
	"legato/internal/secure"
)

// newJob assembles a system from opts plus the SGX enclave and opens one
// job named "main" on it; the system is closed when the test ends.
func newJob(t *testing.T, opts ...Option) (*System, *Job) {
	t.Helper()
	sys, err := NewSystem(append(opts, WithTEE(secure.SGX))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close(context.Background()) })
	job, err := sys.NewJob("main")
	if err != nil {
		t.Fatal(err)
	}
	return sys, job
}

func TestCloudSystemRunsTaskGraph(t *testing.T) {
	_, job := newJob(t, WithPolicy(MinTime))
	var order []string
	mk := func(name string, in, out []string) Task {
		return Task{Name: name, Gops: 5, In: in, Out: out,
			Fn: func() { order = append(order, name) }}
	}
	if err := job.Submit(mk("produce", nil, []string{"A"})); err != nil {
		t.Fatal(err)
	}
	if err := job.Submit(mk("consume", []string{"A"}, []string{"B"})); err != nil {
		t.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "produce" || order[1] != "consume" {
		t.Fatalf("dependence order: %v", order)
	}
	if rep.Makespan <= 0 || rep.TaskEnergyJ <= 0 || rep.PlatformEnergyJ <= 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
	if !strings.Contains(rep.Energy.String(), "recs0") {
		t.Fatal("per-device energy breakdown missing")
	}
}

func TestEdgeSystem(t *testing.T) {
	sys, job := newJob(t, WithPlatform(EdgePlatform), WithPolicy(MinEnergy))
	if len(sys.Devices()) != 3 {
		t.Fatalf("edge devices: %d", len(sys.Devices()))
	}
	if err := job.Submit(Task{Name: "t", Gops: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, job := newJob(t, WithPolicy(MinTime))
	if err := job.Submit(Task{}); err == nil {
		t.Fatal("unnamed task accepted")
	}
}

func TestReplicationExpandsToDMRWithVote(t *testing.T) {
	_, job := newJob(t, WithPolicy(MinTime))
	if err := job.Submit(Task{
		Name: "critical", Gops: 10, Out: []string{"R"},
		Req: Requirements{Replicate: true},
	}); err != nil {
		t.Fatal(err)
	}
	var after bool
	if err := job.Submit(Task{Name: "reader", Gops: 1, In: []string{"R"},
		Fn: func() { after = true }}); err != nil {
		t.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !after {
		t.Fatal("downstream task did not run")
	}
	if rep.ReplicatedTasks != 1 {
		t.Fatalf("replicated tasks: %d", rep.ReplicatedTasks)
	}
	// Expansion: replica a, replica b, vote, reader = 4 records.
	if len(rep.Records) != 4 {
		t.Fatalf("records: %d, want 4 (a, b, vote, reader)", len(rep.Records))
	}
	// Replicas must land on different device classes (diversity).
	classes := map[hw.Class]bool{}
	var voteStart, aEnd, bEnd int64
	for _, r := range rep.Records {
		switch {
		case strings.HasSuffix(r.Name, "#a"):
			classes[r.Class] = true
			aEnd = int64(r.End)
		case strings.HasSuffix(r.Name, "#b"):
			classes[r.Class] = true
			bEnd = int64(r.End)
		case strings.HasSuffix(r.Name, "#vote"):
			voteStart = int64(r.Start)
		}
	}
	if len(classes) < 2 {
		t.Fatalf("replicas not on diverse classes: %v", classes)
	}
	if voteStart < aEnd || voteStart < bEnd {
		t.Fatal("vote ran before both replicas finished")
	}
}

func TestSecureTaskChargesEnclave(t *testing.T) {
	_, job := newJob(t, WithPolicy(MinTime))
	job.Data("payload", 4096)
	if err := job.Submit(Task{
		Name: "gateway", Gops: 5, In: []string{"payload"},
		Req: Requirements{Secure: true},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecurityEnergyJ <= 0 {
		t.Fatal("secure task charged no enclave energy")
	}
}

func TestPolicyChangesPlacement(t *testing.T) {
	run := func(p Policy) float64 {
		_, job := newJob(t, WithPolicy(p))
		for i := 0; i < 10; i++ {
			if err := job.Submit(Task{Name: "t", Gops: 50,
				Targets: []hw.Class{hw.CPUx86, hw.CPUARM}}); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := job.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.TaskEnergyJ
	}
	if eco, fast := run(MinEnergy), run(MinTime); eco >= fast {
		t.Fatalf("energy policy (%v J) not below time policy (%v J)", eco, fast)
	}
}

// The fleet ledger lists devices in fleet order, the order of
// System.Devices, on every call.
func TestFleetDevicesInFleetOrder(t *testing.T) {
	sys, _ := newJob(t)
	var want []string
	for _, d := range sys.Devices() {
		want = append(want, d.ID)
	}
	if len(want) < 3 {
		t.Fatalf("fleet of %d devices cannot show an order", len(want))
	}
	for i := 0; i < 20; i++ {
		if got := sys.Fleet().Devices(); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("call %d: fleet devices %v, want %v", i, got, want)
		}
	}
}
