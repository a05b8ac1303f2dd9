package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"legato/internal/sim"
	"legato/internal/trace"
)

// referenceEncode is the oracle SessionDump.Encode must match byte for
// byte: encoding/json's indented encoder.
func referenceEncode(d *SessionDump) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(d)
	return buf.Bytes(), err
}

// checkEncode asserts that Encode and the reference agree on d: the same
// bytes, or both an error with nothing written.
func checkEncode(t *testing.T, d *SessionDump) []byte {
	t.Helper()
	want, wantErr := referenceEncode(d)
	var got bytes.Buffer
	err := d.Encode(&got)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Encode error = %v, reference error = %v", err, wantErr)
	}
	if err != nil {
		if got.Len() != 0 {
			t.Fatalf("Encode wrote %d bytes before failing with %v", got.Len(), err)
		}
		return nil
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Encode drifted from encoding/json:\n%s", firstDiff(got.Bytes(), want))
	}
	return got.Bytes()
}

// firstDiff shows both documents around their first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-80)
	return fmt.Sprintf("at byte %d (got %d bytes, want %d)\n--- got\n%q\n--- want\n%q",
		i, len(got), len(want), got[lo:min(len(got), i+80)], want[lo:min(len(want), i+80)])
}

// fuzzDump builds a dump that puts a and b in every string position
// (names, keys, details), x in every float and n in every integer. The
// shape bits choose nil, empty or filled spans, counters, metrics and
// events, and a nil or empty inner metrics map.
func fuzzDump(a, b string, x float64, n int64, kind uint8, shape uint8) *SessionDump {
	d := &SessionDump{Name: a}
	switch shape & 3 {
	case 0:
		d.Spans = []trace.Span{
			{Name: a, Category: b, Resource: a + b, Start: sim.Time(n), End: sim.Time(-n), Value: x},
			{Value: -x},
		}
	case 1:
		d.Spans = nil
	case 2:
		d.Spans = []trace.Span{}
	case 3:
		d.Spans = []trace.Span{{Name: b, Start: sim.Time(n), Value: x}}
	}
	d.Counters = map[string]float64{}
	if shape&4 == 0 {
		d.Counters[a], d.Counters[b] = x, -x
	}
	if shape&32 == 0 {
		d.Metrics = map[string]map[string]float64{"job/" + a: {a: x, b: 1}}
		if shape&8 == 0 {
			d.Metrics[b] = nil
		} else {
			d.Metrics[b] = map[string]float64{}
		}
	}
	if shape&16 == 0 {
		d.Events = []Event{
			{Seq: uint64(n), At: sim.Time(n), Kind: Kind(kind), Job: a, Task: b, Device: a, Value: x, Detail: b},
			{Seq: uint64(-n), Kind: Kind(kind + 1)},
		}
	} else {
		d.Events = []Event{}
	}
	return d
}

// decodedForm is what DecodeSession returns for a dump whose strings are
// valid UTF-8: the omitted empty sections come back nil.
func decodedForm(d *SessionDump) *SessionDump {
	out := *d
	if len(out.Counters) == 0 {
		out.Counters = nil
	}
	if len(out.Metrics) == 0 {
		out.Metrics = nil
	}
	if len(out.Events) == 0 {
		out.Events = nil
	}
	return &out
}

func FuzzSessionDumpEncode(f *testing.F) {
	for _, s := range []string{
		"", "plain", "<>&", `"`, `\`, "\x00\x01\x1f\b\f\n\r\t", "\x7f",
		"\xff", "ok\xc3(bad", "\xe2\x80", "a\u2028b\u2029c", "\ufffd", "\u00e9\u65e5\u672c",
	} {
		f.Add(s, "b", 1.5, int64(7), uint8(0), uint8(0))
	}
	for _, x := range []float64{
		math.Copysign(0, -1), 0, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, -1e21, 123456789e12,
		5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add("x", "y", x, int64(-3), uint8(TaskCompleted), uint8(0))
	}
	for shape := 0; shape < 64; shape++ {
		f.Add("s", "s", 2.5, int64(math.MinInt64), uint8(TaskPlaced), uint8(shape))
	}
	for k := 0; k <= len(kindNames); k++ {
		f.Add("k", "", 0.0, int64(math.MaxInt64), uint8(k), uint8(0))
	}
	f.Add("k", "", 1.0, int64(0), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, a, b string, x float64, n int64, kind, shape uint8) {
		d := fuzzDump(a, b, x, n, kind, shape)
		blob := checkEncode(t, d)
		if blob == nil {
			return
		}
		back, err := DecodeSession(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("an encoded dump must decode: %v", err)
		}
		if len(back.Spans) != len(d.Spans) || len(back.Events) != len(d.Events) {
			t.Fatalf("lossy round trip: %d/%d spans, %d/%d events",
				len(back.Spans), len(d.Spans), len(back.Events), len(d.Events))
		}
		for i := range d.Events {
			if back.Events[i].Kind != d.Events[i].Kind {
				t.Fatalf("event %d kind %v came back as %v", i, d.Events[i].Kind, back.Events[i].Kind)
			}
		}
		if utf8.ValidString(a) && utf8.ValidString(b) && !reflect.DeepEqual(back, decodedForm(d)) {
			t.Fatalf("round trip changed the dump:\n got %+v\nwant %+v", back, decodedForm(d))
		}
	})
}

// fillExported sets every exported field reachable from v to a non-zero
// value, so no omitempty field hides; slices and maps get one element.
func fillExported(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(path)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(len(path)))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(len(path))%7 + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(len(path)) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fillExported(t, v.Field(i), path+"."+f.Name)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fillExported(t, s.Index(0), path+"[0]")
		v.Set(s)
	case reflect.Map:
		key := reflect.New(v.Type().Key()).Elem()
		fillExported(t, key, path+"#key")
		val := reflect.New(v.Type().Elem()).Elem()
		fillExported(t, val, path+"#val")
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(key, val)
		v.Set(m)
	default:
		t.Fatalf("%s: no filler for %s; extend this test and SessionDump.Encode together", path, v.Type())
	}
}

// TestSessionDumpEncodeCoversEveryField guards the hand-written encoder
// against struct growth: a field added to SessionDump, Event or
// trace.Span that Encode does not write makes the bytes differ from the
// reflecting reference.
func TestSessionDumpEncodeCoversEveryField(t *testing.T) {
	var d SessionDump
	fillExported(t, reflect.ValueOf(&d).Elem(), "dump")
	if len(d.Spans) != 1 || len(d.Events) != 1 || d.Events[0].Value == 0 || d.Events[0].Detail == "" {
		t.Fatalf("filler left a field empty: %+v", d)
	}
	blob := checkEncode(t, &d)
	if !bytes.Contains(blob, []byte(`"detail": "dump.Events[0].Detail"`)) {
		t.Fatalf("filled dump lacks the event detail:\n%s", blob)
	}
}

// chunkWriter records each Write and fails from the failAt-th on (0:
// never).
type chunkWriter struct {
	failAt int
	writes []int
	buf    bytes.Buffer
}

var errSink = errors.New("sink full")

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	if w.failAt > 0 && len(w.writes) >= w.failAt {
		return 0, errSink
	}
	return w.buf.Write(p)
}

func TestSessionDumpEncodeStreamsChunks(t *testing.T) {
	d := observedShapeDump(40, 24)
	want, err := referenceEncode(d)
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	if err := d.Encode(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatalf("chunked stream drifted:\n%s", firstDiff(w.buf.Bytes(), want))
	}
	if len(w.writes) < 2 {
		t.Fatalf("a %d-byte dump went out in %d write(s), want several chunks", len(want), len(w.writes))
	}
	for i, n := range w.writes {
		if n > dumpChunk {
			t.Fatalf("write %d carried %d bytes, more than the %d-byte chunk", i, n, dumpChunk)
		}
	}
}

func TestSessionDumpEncodeWriterError(t *testing.T) {
	for _, failAt := range []int{1, 2} {
		w := chunkWriter{failAt: failAt}
		err := observedShapeDump(40, 24).Encode(&w)
		if !errors.Is(err, errSink) || !strings.HasPrefix(err.Error(), "obs: writing session dump: ") {
			t.Fatalf("failAt %d: err = %v, want a wrapped writer error", failAt, err)
		}
		if len(w.writes) != failAt {
			t.Fatalf("failAt %d: %d writes, want none after the failure", failAt, len(w.writes))
		}
	}
}

func TestSessionDumpEncodeRejectsNaN(t *testing.T) {
	d := observedShapeDump(2, 4)
	d.Counters["bad"] = math.NaN()
	d.Counters["worse"] = math.NaN()
	if _, err := referenceEncode(d); err == nil {
		t.Fatal("the reference encoder accepted NaN")
	}
	// "bad" is encoded before "worse", so every encode names it.
	for i := 0; i < 20; i++ {
		var w chunkWriter
		err := d.Encode(&w)
		if err == nil || !strings.Contains(err.Error(), `counters["bad"]`) {
			t.Fatalf("encode %d: err = %v, want the first NaN counter named", i, err)
		}
		if len(w.writes) != 0 {
			t.Fatalf("%d writes before the NaN was reported, want none", len(w.writes))
		}
	}
}

// observedShapeDump builds a dump shaped like one session of the bench
// harness's observed workload: jobs of four chains of `tasks/4` tasks,
// one in ten replicated into #a/#b/#vote, each runtime task leaving
// queued/placed/started/completed events and queue, task and two
// fleet-draw spans, plus per-job and per-device registry scopes.
func observedShapeDump(jobs, tasks int) *SessionDump {
	devices := []string{"recs0/x86-0", "recs0/x86-1", "recs0/arm-0", "recs0/gpu-0", "recs0/fpga-0"}
	d := &SessionDump{
		Name:     "legato-session",
		Counters: map[string]float64{"jobs": float64(jobs)},
		Metrics:  map[string]map[string]float64{},
	}
	var seq uint64
	for j := 0; j < jobs; j++ {
		job := fmt.Sprintf("job-%04d", j)
		var at sim.Time
		for i := 0; i < tasks; i++ {
			names := []string{fmt.Sprintf("%s/c%d/t%d", job, i%4, i/4)}
			if i%10 == 0 {
				names = []string{names[0] + "#a", names[0] + "#b", names[0] + "#vote"}
			}
			for _, name := range names {
				dev := devices[int(seq/4)%len(devices)]
				start, end := at+sim.Time(1e5), at+sim.Time(3.7e6)
				draw := 100 + float64(seq%97)*1.37
				for _, ev := range []Event{
					{At: at, Kind: TaskQueued, Task: name},
					{At: start, Kind: TaskPlaced, Task: name, Device: dev, Value: 1},
					{At: start, Kind: TaskStarted, Task: name, Device: dev},
					{At: end, Kind: TaskCompleted, Task: name, Device: dev, Value: 0.0123 * draw},
				} {
					seq++
					ev.Seq, ev.Job = seq, job
					d.Events = append(d.Events, ev)
				}
				d.Spans = append(d.Spans,
					trace.Span{Name: name, Category: "queue", Resource: name, Start: at, End: at},
					trace.Span{Name: "fleet-draw", Category: "power", Resource: "fleet", Start: start, End: start, Value: draw},
					trace.Span{Name: name, Category: "task", Resource: dev, Start: start, End: end},
					trace.Span{Name: "fleet-draw", Category: "power", Resource: "fleet", Start: end, End: end, Value: draw - 20},
				)
				at = end
			}
		}
		d.Metrics["job/"+job] = map[string]float64{
			"tasks-completed": float64(tasks), "energy-total-J": 41.5 + float64(j),
			"makespan-s": sim.ToSeconds(at), "fleet-start-s": 0.25 * float64(j),
		}
		d.Counters["tasks"] += float64(tasks)
	}
	for i, dev := range devices {
		d.Metrics["device/"+dev] = map[string]float64{"tasks-completed": float64(i * jobs), "busy-s": 1.5 * float64(i)}
	}
	return d
}

// BenchmarkSessionDumpEncode times the export of one observed-shaped
// session: 250 jobs x 24 tasks, about 29k events and 29k spans.
func BenchmarkSessionDumpEncode(b *testing.B) {
	d := observedShapeDump(250, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(d.Events)), "ns/event")
}
