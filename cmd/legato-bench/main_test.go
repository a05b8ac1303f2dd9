package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper-quick.golden")

// unpinned lists the sections whose rows still depend on goroutine
// interleaving: multi-worker sessions apply watt-ledger refusals, governor
// steps and the first crossing of a fault in host order. The golden records
// them; the comparison keeps only their titles.
var unpinned = []string{"E11:", "E12:", "E13:", "E14:"}

// TestPaperTablesGolden pins every `legato-bench -quick` table byte for
// byte. Regenerate with `make golden` (go test ./cmd/legato-bench -run
// TestPaperTablesGolden -update) and explain every changed row.
func TestPaperTablesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, true, &recorder{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "paper-quick.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run make golden to create it)", err)
	}
	g, w := mask(buf.String()), mask(string(want))
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(g), len(w))
	}
}

// mask splits a run's output into lines, dropping the body of every
// unpinned section.
func mask(out string) []string {
	lines := strings.Split(out, "\n")
	var kept []string
	skip := false
	for i := 0; i < len(lines); i++ {
		if i+2 < len(lines) && lines[i] == rule && lines[i+2] == rule {
			title := lines[i+1]
			skip = false
			for _, p := range unpinned {
				skip = skip || strings.HasPrefix(title, p)
			}
			kept = append(kept, rule, title, rule)
			i += 2
			continue
		}
		if !skip {
			kept = append(kept, lines[i])
		}
	}
	return kept
}
