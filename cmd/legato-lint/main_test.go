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

// Each syntactic pass flags the one offending line of its fixture and
// nothing else there.
func TestSyntacticPasses(t *testing.T) {
	for _, c := range []struct {
		dir  string
		line int
		msg  string
	}{
		{"testdata/errcheck", 11, "error result of save ignored"},
		{"testdata/wallclock", 7, "wall-clock time.Now"},
		{"testdata/output", 12, "fmt.Println in runtime code"},
	} {
		fs, err := lintDir(c.dir, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 1 || fs[0].pos.Line != c.line || !strings.Contains(fs[0].msg, c.msg) {
			t.Errorf("%s: findings %v, want one %q at line %d", c.dir, fs, c.msg, c.line)
		}
	}
}

// The test-only-API pass flags the func, the method and the type (whose own
// receiver does not count) only a _test.go file references, and the
// allowlist entry that names nothing. It accepts a name another package
// references, also through an instantiation of a generic func or type, a
// method that satisfies an interface of the tree or of the standard
// library, and an allowlisted name.
func TestTestOnlyAPIPass(t *testing.T) {
	allow := map[string]string{
		"internal/a.Allowed": "kept for the test",
		"internal/a.Gone":    "names nothing",
	}
	fs, err := testOnlyAPI("testdata/testonly", "fixture", allow)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		got = append(got, strings.Fields(f.msg)[0])
	}
	want := []string{"internal/a.Orphan", "internal/a.T.Spare", "internal/a.TestOnly", "internal/a.Gone"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("findings %v, want %v", fs, want)
	}
}
