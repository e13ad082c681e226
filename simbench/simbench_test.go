package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func prepared(t *testing.T, name string) (*bench, []unit) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(defaultSeed, nil)
	units, err := b.prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("%d set-up units failed", b.failed)
	}
	return b, units
}

func unitByKey(t *testing.T, units []unit, key string) unit {
	t.Helper()
	for _, u := range units {
		if u.key == key {
			return u
		}
	}
	t.Fatalf("no unit %s", key)
	return unit{}
}

func TestGoldenFixedPoints(t *testing.T) {
	units, err := loadGolden("paper-suite")
	if err != nil {
		t.Fatal(err)
	}
	rec := units["ispell/seq"]
	rec.Cycles++
	units["ispell/seq"] = rec
	if err := checkFixedPoints(units); err == nil {
		t.Fatal("a paper suite off the ROADMAP fixed points passed")
	}
}

func TestDriftedGoldenFails(t *testing.T) {
	b, units := prepared(t, "paper-suite")
	u := unitByKey(t, units, "ispell/seq")
	if _, err := b.runUnit(u); err != nil {
		t.Fatalf("unit against its own golden record: %v", err)
	}
	rec := b.golden[u.key]
	rec.Engine.Mispredicts++
	b.golden[u.key] = rec
	if _, err := b.runUnit(u); err == nil {
		t.Fatal("a drifted golden record passed")
	}
	if errorRate(b) <= 0 {
		t.Fatalf("error rate %v after a drifted unit", errorRate(b))
	}
}

func TestCorruptCheckpointFails(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(data []byte) []byte { return data[:len(data)/2] },
		// A document that still parses: the partial outcome's cycle count
		// gains a leading digit, so the resumed run's total is wrong.
		"partial cycles": func(data []byte) []byte {
			at := bytes.Index(data, []byte(`"partial": {`))
			at += bytes.Index(data[at:], []byte(`"Cycles": `)) + len(`"Cycles": `)
			return append(append(append([]byte(nil), data[:at]...), '9'), data[at:]...)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			b, units := prepared(t, "observed")
			b.corrupt = corrupt
			if _, err := b.runUnit(units[0]); err == nil {
				t.Fatal("a corrupted checkpoint passed")
			}
			if errorRate(b) <= 0 {
				t.Fatalf("error rate %v after a corrupted checkpoint", errorRate(b))
			}
		})
	}
}

func TestMemsysProbeClasses(t *testing.T) {
	for _, p := range memsysProbes {
		h, op := p.prime()
		before := p.class(h.Stats())
		const n = 1000
		for i := 0; i < n; i++ {
			op(i)
		}
		if got := p.class(h.Stats()) - before; got != n {
			t.Errorf("%s: %d accesses counted %d in its class", p.metric, n, got)
		}
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// lastResult runs the benchmark in-process and parses its last output line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("run not correct: %+v\n%s", r, errs.String())
	}
	return r
}

func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s printed in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, declared %d", len(got), len(want))
	}
}

func TestWorkloadsDeclared(t *testing.T) {
	bj := declared(t)
	if len(bj.Workloads) != len(allWorkloads) {
		t.Fatalf("declared %d workloads, benchmark has %d", len(bj.Workloads), len(allWorkloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d declared %s, benchmark has %s", i, w.Name, allWorkloads[i].name)
		}
	}
	if len(layerDefs()) != len(bj.PerLayer) {
		t.Errorf("layerDefs has %d metrics, BENCHMARK.json %d", len(layerDefs()), len(bj.PerLayer))
	}
}

// TestPrintedMetricsAndSpans runs the cheapest workload untraced and traced,
// checks every printed name against BENCHMARK.json, and checks that the
// traced run's spans nest within their unit.
func TestPrintedMetricsAndSpans(t *testing.T) {
	bj := declared(t)
	plain := lastResult(t, "-workload", "manycore", "-seed", "5", "-seconds", "1", "-trace", "0")
	checkNames(t, plain.Metrics, bj.EndToEnd)
	for name, m := range plain.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v", name, m.Value)
		}
	}

	dir := t.TempDir()
	traced := lastResult(t, "-workload", "manycore", "-seed", "5", "-seconds", "1", "-trace", "1", "-trace-out", dir)
	checkNames(t, traced.Metrics, bj.PerLayer)

	buf, err := os.ReadFile(filepath.Join(dir, "manycore-seed5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans written")
	}
	roots := map[int]int{}
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			roots[s.Unit]++
			continue
		}
		p := doc.Spans[s.Parent]
		if p.Unit != s.Unit || p.Start > s.Start || s.End > p.End {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
	for u, n := range roots {
		if n != 1 {
			t.Errorf("unit %d has %d root spans", u, n)
		}
	}
}
