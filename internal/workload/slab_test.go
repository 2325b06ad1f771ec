package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"resilientdb/internal/types"
)

// goldenStreams are request streams whose bytes were recorded before
// NextRequest carved its transactions from slabs. Each digest is SHA-256
// over the marshalled bodies of the first requests of one (config, salt):
// it moves if a key, a value byte, a scan span or the order of the draws
// behind them moves.
var goldenStreams = []struct {
	name   string
	cfg    func(*Config)
	salt   int64
	txns   int
	digest string
}{
	{"write-only", func(c *Config) {}, 3, 32, "ce1334856e3ff80ee1e78671bda54a7ee739c2caa97175364b3b7fcf08884031"},
	{"multi-op-payload", func(c *Config) { c.OpsPerTxn, c.PayloadSize, c.Seed = 4, 48, 9 }, 1, 8, "3c36fc02629e6185c9695fb33e05ac6e0d8a91b90950a9fc01c74f3c90c758b8"},
	{"reads", func(c *Config) { c.OpsPerTxn, c.ReadFraction, c.Seed = 2, 0.5, 13 }, 7, 16, "303047cb84efc0a077a8e616e7d9c951ae2e2a10072bc5fffcb855cae30d421d"},
	{"reads-scans-payload", func(c *Config) {
		c.OpsPerTxn, c.ReadFraction, c.ScanFraction, c.ScanLength, c.PayloadSize, c.Distribution = 4, 0.45, 0.05, 20, 16, Uniform
	}, 2, 8, "3ea3a23b9dd5d4928763d36a6eb5df48937b51d6f6ca59eb954445897049d68d"},
	{"preset-e", func(c *Config) { c.Preset, c.ValueSize = "e", 10 }, 5, 4, "d10170dbe9b78902131da82390e7cd7436da625e312c1a0ddd402085186f5316"},
}

func TestRequestStreamGolden(t *testing.T) {
	for _, g := range goldenStreams {
		t.Run(g.name, func(t *testing.T) {
			cfg := Default()
			cfg.Records = 10_000
			g.cfg(&cfg)
			w, err := New(cfg, g.salt)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			seq := uint64(1)
			for i := 0; i < 6; i++ {
				req := w.NextRequest(types.ClientID(g.salt), seq, g.txns)
				h.Write(types.MarshalBody(&req))
				seq += uint64(g.txns)
			}
			// A lone transaction draws exactly as one inside a request does.
			txn := w.NextTransaction(types.ClientID(g.salt), seq)
			h.Write(types.MarshalBody(&types.ClientRequest{Client: types.ClientID(g.salt), FirstSeq: seq, Txns: []types.Transaction{txn}}))
			if got := hex.EncodeToString(h.Sum(nil)); got != g.digest {
				t.Fatalf("stream digest %s, want %s", got, g.digest)
			}
		})
	}
}

// TestNextRequestAllocations is the generator's allocation gate: a request
// costs its transaction list, one operation slab and one byte slab however
// many transactions it carries, and every value is clipped to its own
// bytes.
func TestNextRequestAllocations(t *testing.T) {
	cfg := Default()
	cfg.Records, cfg.OpsPerTxn, cfg.PayloadSize = 10_000, 2, 8
	w, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	var req types.ClientRequest
	allocs := testing.AllocsPerRun(200, func() {
		req = w.NextRequest(1, seq, 32)
		seq += 32
	})
	if allocs > 3 {
		t.Fatalf("a 32-transaction request costs %.0f allocations, want 3", allocs)
	}
	for i := range req.Txns {
		txn := &req.Txns[i]
		if cap(txn.Ops) != len(txn.Ops) || cap(txn.Payload) != len(txn.Payload) {
			t.Fatalf("txn %d: ops or payload not clipped to their length", i)
		}
		for j := range txn.Ops {
			if v := txn.Ops[j].Value; len(v) != cfg.ValueSize || cap(v) != len(v) {
				t.Fatalf("txn %d op %d: value len %d cap %d, want %d clipped", i, j, len(v), cap(v), cfg.ValueSize)
			}
		}
	}
}
