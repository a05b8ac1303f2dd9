package energy

import (
	"strings"
	"testing"
)

func TestReport(t *testing.T) {
	r := NewReport()
	r.Add("gpu", 10)
	r.Add("cpu", 5)
	r.Add("gpu", 2.5)
	if r.Get("gpu") != 12.5 {
		t.Fatalf("gpu energy: %v", r.Get("gpu"))
	}
	if r.Total() != 17.5 {
		t.Fatalf("total: %v", r.Total())
	}
	s := r.String()
	if !strings.Contains(s, "gpu") || !strings.Contains(s, "TOTAL") {
		t.Fatalf("report rendering missing rows:\n%s", s)
	}
	// cpu sorts before gpu.
	if strings.Index(s, "cpu") > strings.Index(s, "gpu") {
		t.Fatal("report rows not sorted")
	}
}

// TestReportTotalIsOrderFree: floating-point addition does not associate,
// so a total summed in map order changes from call to call when the rows
// cancel. Total must add in name order every time.
func TestReportTotalIsOrderFree(t *testing.T) {
	a, b, c := Joules(1e16), Joules(1), Joules(-1e16)
	r := NewReport()
	r.Add("b", b)
	r.Add("c", c)
	r.Add("a", a)
	want := (a + b) + c // name order, at float64 precision
	for i := 0; i < 200; i++ {
		if got := r.Total(); got != want {
			t.Fatalf("call %d: total %v, want the name-order sum %v", i, got, want)
		}
	}
}
