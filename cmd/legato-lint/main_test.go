package main

import (
	"strings"
	"testing"
)

// The map-order pass flags the fixture's range over a map, and only it:
// the loop over a sorted slice passes.
func TestMapOrderPass(t *testing.T) {
	fs, err := lintDir("testdata/maprange", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 {
		t.Fatalf("%d findings, want the one map range: %v", len(fs), fs)
	}
	if f := fs[0]; f.pos.Line != 10 || !strings.Contains(f.msg, "range over a map") {
		t.Fatalf("finding %s: %s, want the map range at line 10", f.pos, f.msg)
	}
	// Without the pass the fixture is clean.
	if fs, err := lintDir("testdata/maprange", false); err != nil || len(fs) != 0 {
		t.Fatalf("other passes: %v, %v", fs, err)
	}
}
