package memsys

import (
	"reflect"
	"testing"

	"hmtx/internal/obs"
	"hmtx/internal/vid"
)

func TestStatsAdd(t *testing.T) {
	a := Stats{L1Hits: 3, Commits: 1}
	b := Stats{L1Hits: 7, Aborts: 2}
	a.Add(&b)
	if a.L1Hits != 10 || a.Commits != 1 || a.Aborts != 2 {
		t.Fatalf("Add: got %+v", a)
	}
}

// TestStatsAddAllFields drives every field through Add via reflection, so a
// new Stats field can never be silently dropped from aggregation.
func TestStatsAddAllFields(t *testing.T) {
	var a, b Stats
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(&b)
	for i := 0; i < av.NumField(); i++ {
		want := uint64(i+1) + uint64(100*(i+1))
		if got := av.Field(i).Uint(); got != want {
			t.Errorf("field %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

func TestRegisterAndTrace(t *testing.T) {
	h := newTestH(2)
	reg := obs.NewRegistry()
	h.Register(reg, "memsys")
	tr := obs.NewTracer(obs.CatAll, 0)
	h.Hook().Tracer = tr

	h.PokeWord(addrA, 1)
	h.Load(0, addrA, vid.NonSpec) // miss -> bus + mem read
	h.Load(0, addrA, vid.NonSpec) // L1 hit
	h.Load(1, addrA, vid.NonSpec) // peer transfer
	h.Store(0, addrA, 42, 1)      // new speculative version
	h.Commit(1)

	snap := reg.Snapshot()
	get := func(name string) uint64 {
		t.Helper()
		for _, e := range snap.Entries {
			if e.Name == name {
				if e.Kind == "hist" {
					return e.Hist.Total
				}
				return e.Counter
			}
		}
		t.Fatalf("stat %q not registered", name)
		return 0
	}
	if get("memsys.l1[0].hits") == 0 {
		t.Error("l1[0].hits not counted")
	}
	if get("memsys.versions_created") != 1 {
		t.Errorf("versions_created = %d, want 1", get("memsys.versions_created"))
	}
	if get("memsys.load_latency") != 3 || get("memsys.store_latency") != 1 {
		t.Errorf("latency histograms = %d loads / %d stores, want 3/1",
			get("memsys.load_latency"), get("memsys.store_latency"))
	}

	// Per-cache hits must agree with the aggregate counters.
	var perCache uint64
	perCache = get("memsys.l1[0].hits") + get("memsys.l1[1].hits") + get("memsys.l2.hits")
	want := get("memsys.l1_hits") + get("memsys.peer_transfers") + get("memsys.l2_hits")
	if perCache != want {
		t.Errorf("per-cache hits %d != aggregate hits %d", perCache, want)
	}

	kinds := make(map[obs.Kind]int)
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []obs.Kind{obs.KBusRequest, obs.KVersionCreate, obs.KCommit} {
		if kinds[k] == 0 {
			t.Errorf("no %v events traced", k)
		}
	}
}

func TestNilTracerNoEvents(t *testing.T) {
	h := newTestH(2)
	h.PokeWord(addrA, 1)
	h.Load(0, addrA, 1)
	h.Store(0, addrA, 2, 1)
	if h.ins != nil {
		t.Fatal("instrument hook should default to nil")
	}
}
