package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFig8FixedPoint pins the reproduction's fixed points (ROADMAP north
// star): the hmtx-bench/v1 document of the scale-1, 4-core suite — what
// `experiments -only fig8 -scale 1 -q -parallel 1 -json` writes — must keep
// its Fig. 8 geomean, its summed sequential cycles and every byte. A change
// to the engine's scheduling order moves all three; comparing serial against
// parallel runs cannot see it, because both sides run the same scheduler.
func TestFig8FixedPoint(t *testing.T) {
	const (
		wantGeomean = 2.0769022668860426
		wantSeq     = 16748339
		wantSHA     = "2ba00531aed61a00b54cf70b7280a07f1df0fc71fab8f3ebb1f124bd7857cc85"
	)
	cfg := Config{Scale: 1, Cores: 4, Parallelism: 1}
	doc := BuildDoc(cfg, RunAll(cfg, nil))
	if doc.GeomeanHMTX != wantGeomean {
		t.Errorf("Fig. 8 geomean HMTX speedup %v, want %v", doc.GeomeanHMTX, wantGeomean)
	}
	var seq int64
	for _, b := range doc.Benchmarks {
		seq += b.SeqCycles
	}
	if seq != wantSeq {
		t.Errorf("summed seq_cycles %d, want %d", seq, wantSeq)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		t.Errorf("hmtx-bench/v1 document SHA-256 %s, want %s", got, wantSHA)
	}
}
