package serve

// Strict Prometheus text-format parser shared by the handler tests. A
// copy of the monitor package's test helper: both packages verify the
// exposition they serve, and test helpers cannot be imported across
// package boundaries.

import (
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sample is one parsed exposition line.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	lineRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

func unescapeLabel(s string) string {
	r := strings.NewReplacer(`\\`, "\x00", `\"`, `"`, `\n`, "\n")
	return strings.ReplaceAll(r.Replace(s), "\x00", `\`)
}

// parseExposition parses Prometheus text format strictly: every
// non-comment line must be a well-formed sample with a finite value,
// every sample must be preceded by a TYPE declaration of its family, and
// each family's lines (HELP, TYPE, samples) must form one contiguous
// group — a family declared twice, or whose lines reappear after another
// family's, is rejected.
func parseExposition(t *testing.T, text string) []sample {
	t.Helper()
	typed := map[string]string{}
	closed := map[string]bool{}
	current := ""
	group := func(n int, family string) {
		if family == current {
			return
		}
		if closed[family] {
			t.Fatalf("line %d: family %q reappears after family %q; its samples must form one group", n+1, family, current)
		}
		closed[current] = true
		current = family
	}
	var out []sample
	for n, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 || (fields[3] != "gauge" && fields[3] != "counter") {
				t.Fatalf("line %d: malformed TYPE: %q", n+1, line)
			}
			if _, dup := typed[fields[2]]; dup {
				t.Fatalf("line %d: family %q declared twice", n+1, fields[2])
			}
			group(n, fields[2])
			typed[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if !strings.HasPrefix(line, "# HELP ") || len(fields) < 3 {
				t.Fatalf("line %d: unexpected comment %q", n+1, line)
			}
			group(n, fields[2])
			continue
		}
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid sample: %q", n+1, line)
		}
		group(n, m[1])
		typ, ok := typed[m[1]]
		if !ok {
			t.Fatalf("line %d: sample %q has no TYPE declaration", n+1, m[1])
		}
		if typ == "counter" && !strings.HasSuffix(m[1], "_total") {
			t.Errorf("counter %q does not end in _total", m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", n+1, m[3], err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("line %d: non-finite value %g", n+1, v)
		}
		s := sample{name: m[1], labels: map[string]string{}, value: v}
		if m[2] != "" {
			rest := m[2]
			for _, lm := range labelRe.FindAllStringSubmatch(rest, -1) {
				s.labels[lm[1]] = unescapeLabel(lm[2])
			}
		}
		out = append(out, s)
	}
	return out
}

// key canonicalizes a sample identity for lookup.
func (s sample) key() string {
	pairs := make([]string, 0, len(s.labels))
	for k, v := range s.labels {
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return s.name + "|" + strings.Join(pairs, ",")
}

// indexSamples maps each sample's canonical identity to its value.
func indexSamples(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.key()] = s.value
	}
	return out
}
