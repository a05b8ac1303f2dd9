package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the pprof profile.proto format, enough to charge
// CPU samples to layers without a module dependency. Field numbers are
// those of github.com/google/pprof/proto/profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3

	labelKey = 1
	labelStr = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// profile is the part of a CPU profile the layer attribution reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location → function IDs, innermost first
	functions map[uint64]int64    // function → name string index
	strings   []string
}

type sample struct {
	locations []uint64   // leaf first
	count     int64      // the first sample value: samples taken
	labels    [][2]int64 // (key, value) string indices
}

// label returns the sample's value for a label key, or "".
func (p *profile) label(s sample, key string) string {
	for _, kv := range s.labels {
		if p.str(kv[0]) == key {
			return p.str(kv[1])
		}
	}
	return ""
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// stack returns the sample's function names, innermost first.
func (p *profile) stack(s sample) []string {
	var fns []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			fns = append(fns, p.str(p.functions[fn]))
		}
	}
	return fns
}

// pb walks one protobuf message.
type pb struct{ b []byte }

var errTruncated = errors.New("cpuprof: truncated protobuf")

func (m *pb) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(m.b) == 0 {
			return 0, errTruncated
		}
		c := m.b[0]
		m.b = m.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("cpuprof: varint overflow")
}

// field reads the next field: its number, wire type, and either its varint
// value (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped.
func (m *pb) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := m.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = m.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(m.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		m.b = m.b[n:]
	case 2:
		var n uint64
		if n, err = m.varint(); err == nil {
			if uint64(len(m.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, m.b = m.b[:n], m.b[n:]
		}
	default:
		err = fmt.Errorf("cpuprof: unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints appends a repeated integer field, packed (wire type 2) or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	m := pb{data}
	for len(m.b) > 0 {
		x, err := m.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzipped) profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("cpuprof: gunzip: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	m := pb{raw}
	for len(m.b) > 0 {
		num, _, _, data, err := m.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case profSample:
			s, err := parseSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			id, fns, err := parseLocation(data)
			if err != nil {
				return nil, err
			}
			p.locations[id] = fns
		case profFunction:
			id, name, err := parseFunction(data)
			if err != nil {
				return nil, err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
	}
	return p, nil
}

func parseSample(data []byte) (sample, error) {
	var s sample
	var values []uint64
	m := pb{data}
	for len(m.b) > 0 {
		num, wire, v, d, err := m.field()
		if err != nil {
			return s, err
		}
		switch num {
		case sampleLocationID:
			s.locations, err = uints(s.locations, wire, v, d)
		case sampleValue:
			values, err = uints(values, wire, v, d)
		case sampleLabel:
			var kv [2]int64
			l := pb{d}
			for len(l.b) > 0 {
				n, _, lv, _, lerr := l.field()
				if lerr != nil {
					return s, lerr
				}
				switch n {
				case labelKey:
					kv[0] = int64(lv)
				case labelStr:
					kv[1] = int64(lv)
				}
			}
			s.labels = append(s.labels, kv)
		}
		if err != nil {
			return s, err
		}
	}
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s, nil
}

func parseLocation(data []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	m := pb{data}
	for len(m.b) > 0 {
		num, _, v, d, err := m.field()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case locationID:
			id = v
		case locationLine:
			line := pb{d}
			for len(line.b) > 0 {
				n, _, lv, _, err := line.field()
				if err != nil {
					return 0, nil, err
				}
				if n == lineFunctionID {
					fns = append(fns, lv)
				}
			}
		}
	}
	return id, fns, nil
}

func parseFunction(data []byte) (uint64, int64, error) {
	var id uint64
	name := int64(-1)
	m := pb{data}
	for len(m.b) > 0 {
		num, _, v, _, err := m.field()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case functionID:
			id = v
		case functionName:
			name = int64(v)
		}
	}
	return id, name, nil
}

// classify charges a stack (innermost frame first) to a layer: the package
// of the innermost frame in the legato module, by module name. A frame of
// the benchmark itself (package main) decides first, as "other", so the
// probe's own observer is not charged to the bus that calls it. Stacks with
// no such frame are "gc" under the background mark worker, else "other".
func classify(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		if pkg, ok := legatoPackage(fn); ok {
			for _, l := range cpuLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	return "other"
}

// legatoPackage returns the last element of a legato function's package
// path: "legato" for the facade, "taskrt" for legato/internal/taskrt.
func legatoPackage(fn string) (string, bool) {
	// No element of the module's package paths contains a dot, so the path
	// ends at the first one.
	path, _, ok := strings.Cut(fn, ".")
	if !ok || (path != "legato" && !strings.HasPrefix(path, "legato/")) {
		return "", false
	}
	return path[strings.LastIndexByte(path, '/')+1:], true
}

// layerShares is the share of CPU samples each layer took in the sessions
// whose goroutines carry the label session=kind. Background GC workers run
// unlabelled; their samples are split between the session kinds in
// proportion to the kinds' labelled samples. Other unlabelled samples, such
// as the benchmark's set-up between sessions, are left out.
func layerShares(raw []byte, kind string) (map[string]float64, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	var mine, labelled, backgroundGC float64
	for _, s := range p.samples {
		n, layer := float64(s.count), classify(p.stack(s))
		switch p.label(s, "session") {
		case kind:
			counts[layer] += n
			mine += n
			labelled += n
		case "":
			if layer == "gc" {
				backgroundGC += n
			}
		default:
			labelled += n
		}
	}
	counts["gc"] += backgroundGC * ratio(mine, labelled)
	total := 0.0
	for _, n := range counts {
		total += n
	}
	shares := map[string]float64{}
	for l, n := range counts {
		shares[l] = ratio(n, total)
	}
	return shares, nil
}
