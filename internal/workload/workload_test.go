package workload

import (
	"math/rand"
	"testing"

	"resilientdb/internal/store"
	"resilientdb/internal/types"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(c *Config) {}, false},
		{"zero records", func(c *Config) { c.Records = 0 }, true},
		{"zero ops", func(c *Config) { c.OpsPerTxn = 0 }, true},
		{"negative value size", func(c *Config) { c.ValueSize = -1 }, true},
		{"bad distribution", func(c *Config) { c.Distribution = 99 }, true},
		{"uniform ok", func(c *Config) { c.Distribution = Uniform }, false},
		{"read fraction ok", func(c *Config) { c.ReadFraction = 0.5 }, false},
		{"read fraction one", func(c *Config) { c.ReadFraction = 1 }, false},
		{"read fraction disabled", func(c *Config) { c.ReadFraction = -1 }, false},
		{"read fraction too big", func(c *Config) { c.ReadFraction = 1.5 }, true},
		{"read fraction too small", func(c *Config) { c.ReadFraction = -0.5 }, true},
		{"preset a", func(c *Config) { c.Preset = "a" }, false},
		{"preset b", func(c *Config) { c.Preset = "b" }, false},
		{"preset c", func(c *Config) { c.Preset = "c" }, false},
		{"bad preset", func(c *Config) { c.Preset = "d" }, true},
		{"preset vs explicit mix", func(c *Config) { c.Preset = "a"; c.ReadFraction = 0.2 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTransactionShape(t *testing.T) {
	cfg := Default()
	cfg.OpsPerTxn = 5
	cfg.ValueSize = 32
	cfg.PayloadSize = 128
	w, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	txn := w.NextTransaction(3, 42)
	if txn.Client != 3 || txn.ClientSeq != 42 {
		t.Fatalf("identity = (%d,%d)", txn.Client, txn.ClientSeq)
	}
	if len(txn.Ops) != 5 {
		t.Fatalf("ops = %d, want 5", len(txn.Ops))
	}
	for _, op := range txn.Ops {
		if op.Key >= cfg.Records {
			t.Fatalf("key %d out of range", op.Key)
		}
		if len(op.Value) != 32 {
			t.Fatalf("value size %d, want 32", len(op.Value))
		}
	}
	if len(txn.Payload) != 128 {
		t.Fatalf("payload size %d, want 128", len(txn.Payload))
	}
}

func TestRequestBurst(t *testing.T) {
	w, err := New(Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	req := w.NextRequest(9, 100, 4)
	if req.Client != 9 || req.FirstSeq != 100 {
		t.Fatalf("identity = (%d,%d)", req.Client, req.FirstSeq)
	}
	if len(req.Txns) != 4 {
		t.Fatalf("txns = %d, want 4", len(req.Txns))
	}
	for i, txn := range req.Txns {
		if txn.ClientSeq != 100+uint64(i) {
			t.Fatalf("txn %d seq = %d", i, txn.ClientSeq)
		}
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	mk := func(salt int64) types.ClientRequest {
		w, err := New(Default(), salt)
		if err != nil {
			t.Fatal(err)
		}
		return w.NextRequest(1, 0, 3)
	}
	a, b := mk(5), mk(5)
	if types.BatchDigest([]types.ClientRequest{a}) != types.BatchDigest([]types.ClientRequest{b}) {
		t.Fatal("same salt produced different workload")
	}
	c := mk(6)
	if types.BatchDigest([]types.ClientRequest{a}) == types.BatchDigest([]types.ClientRequest{c}) {
		t.Fatal("different salts produced identical workload")
	}
}

// TestReadMixShape: a mixed workload produces whole-transaction reads and
// writes at roughly the configured fraction, read ops carry no values, and
// the streams stay deterministic per salt. Presets resolve to their YCSB
// fractions.
func TestReadMixShape(t *testing.T) {
	cfg := Default()
	cfg.Records = 10_000
	cfg.OpsPerTxn = 3
	cfg.ReadFraction = 0.5
	w, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	const txns = 2000
	for i := 0; i < txns; i++ {
		txn := w.NextTransaction(1, uint64(i+1))
		isRead := txn.Ops[0].Kind == types.OpRead
		for _, op := range txn.Ops {
			if (op.Kind == types.OpRead) != isRead {
				t.Fatal("transaction mixes read and write ops; the mix is txn-level")
			}
			if op.Kind == types.OpRead && len(op.Value) != 0 {
				t.Fatal("read op carries a value")
			}
		}
		if isRead {
			reads++
		}
	}
	if frac := float64(reads) / txns; frac < 0.4 || frac > 0.6 {
		t.Fatalf("read fraction %.2f far from configured 0.5", frac)
	}

	w3, w4 := mustNew(t, cfg, 9), mustNew(t, cfg, 9)
	r3, r4 := w3.NextRequest(2, 1, 4), w4.NextRequest(2, 1, 4)
	if types.BatchDigest([]types.ClientRequest{r3}) != types.BatchDigest([]types.ClientRequest{r4}) {
		t.Fatal("mixed workload not deterministic under equal salts")
	}

	for preset, want := range map[string]float64{"a": 0.5, "b": 0.95, "c": 1.0} {
		pc := Default()
		pc.Preset = preset
		pw, err := New(pc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := pw.ReadFraction(); got != want {
			t.Fatalf("preset %q resolved to %g, want %g", preset, got, want)
		}
	}
	dc := Default()
	dc.ReadFraction = -1
	if got := mustNew(t, dc, 1).ReadFraction(); got != 0 {
		t.Fatalf("ReadFraction=-1 resolved to %g, want 0", got)
	}
}

func mustNew(t *testing.T, cfg Config, salt int64) *Workload {
	t.Helper()
	w, err := New(cfg, salt)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWriteStreamUnchangedByReadKnob: with a zero read fraction the
// generated stream must be byte-identical to the pre-read workload — the
// mix coin must not consume random draws when reads are off.
func TestWriteStreamUnchangedByReadKnob(t *testing.T) {
	base := mustNew(t, Default(), 4)
	off := Default()
	off.ReadFraction = -1
	disabled := mustNew(t, off, 4)
	for i := 0; i < 50; i++ {
		a := base.NextRequest(1, uint64(i*3+1), 3)
		b := disabled.NextRequest(1, uint64(i*3+1), 3)
		da := types.BatchDigest([]types.ClientRequest{a})
		db := types.BatchDigest([]types.ClientRequest{b})
		if da != db {
			t.Fatalf("request %d diverged between default and explicitly-disabled reads", i)
		}
	}
}

func TestScanMixShape(t *testing.T) {
	cfg := Default()
	cfg.Records = 10_000
	cfg.OpsPerTxn = 2
	cfg.ReadFraction = 0.3
	cfg.ScanFraction = 0.3
	cfg.ScanLength = 25
	w := mustNew(t, cfg, 1)
	counts := map[types.OpKind]int{}
	const txns = 3000
	for i := 0; i < txns; i++ {
		txn := w.NextTransaction(1, uint64(i+1))
		kind := txn.Ops[0].Kind
		counts[kind]++
		for _, op := range txn.Ops {
			if op.Kind != kind {
				t.Fatal("transaction mixes op kinds; the mix is txn-level")
			}
			if op.Kind != types.OpScan {
				if op.EndKey != 0 || op.Limit != 0 {
					t.Fatalf("non-scan op carries scan bounds: %+v", op)
				}
				continue
			}
			if len(op.Value) != 0 {
				t.Fatal("scan op carries a value")
			}
			span := op.EndKey - op.Key + 1
			if op.EndKey < op.Key || span > uint64(cfg.ScanLength) || uint64(op.Limit) != span {
				t.Fatalf("malformed scan bounds: key=%d end=%d limit=%d", op.Key, op.EndKey, op.Limit)
			}
		}
	}
	for kind, want := range map[types.OpKind]float64{types.OpRead: 0.3, types.OpScan: 0.3, types.OpWrite: 0.4} {
		if frac := float64(counts[kind]) / txns; frac < want-0.08 || frac > want+0.08 {
			t.Fatalf("kind %d fraction %.2f far from configured %.2f", kind, frac, want)
		}
	}

	pc := Default()
	pc.Preset = "e"
	pw := mustNew(t, pc, 1)
	if pw.ScanFraction() != 0.95 || pw.ReadFraction() != 0 {
		t.Fatalf("preset e resolved to read=%g scan=%g, want 0/0.95", pw.ReadFraction(), pw.ScanFraction())
	}
	dc := Default()
	dc.ScanFraction = -1
	if got := mustNew(t, dc, 1).ScanFraction(); got != 0 {
		t.Fatalf("ScanFraction=-1 resolved to %g, want 0", got)
	}
	bad := Default()
	bad.ReadFraction = 0.7
	bad.ScanFraction = 0.7
	if err := bad.Validate(); err == nil {
		t.Fatal("ReadFraction+ScanFraction > 1 validated")
	}
}

// TestReadStreamUnchangedByScanKnob: a read/write mix must generate the
// exact same stream whether scans are default-off or explicitly disabled —
// the scan arm shares the read mix coin, so adding the knob perturbs no
// pre-scan stream.
func TestReadStreamUnchangedByScanKnob(t *testing.T) {
	cfg := Default()
	cfg.ReadFraction = 0.5
	base := mustNew(t, cfg, 4)
	off := cfg
	off.ScanFraction = -1
	disabled := mustNew(t, off, 4)
	for i := 0; i < 50; i++ {
		a := base.NextRequest(1, uint64(i*3+1), 3)
		b := disabled.NextRequest(1, uint64(i*3+1), 3)
		da := types.BatchDigest([]types.ClientRequest{a})
		db := types.BatchDigest([]types.ClientRequest{b})
		if da != db {
			t.Fatalf("request %d diverged between default and explicitly-disabled scans", i)
		}
	}
}

// TestInitTable: the preload fills every record with one PutMany per
// initChunk records and no Put, which on the disk store would wait out a
// group commit each.
func TestInitTable(t *testing.T) {
	cfg := Default()
	cfg.Records = 2*initChunk + 500
	st := NewCountingStore()
	if err := InitTable(st, cfg); err != nil {
		t.Fatal(err)
	}
	if st.Len() != int(cfg.Records) {
		t.Fatalf("Len = %d, want %d", st.Len(), cfg.Records)
	}
	v, err := st.Get(cfg.Records - 1)
	if err != nil || len(v) != cfg.ValueSize {
		t.Fatalf("Get(%d) = (%d bytes, %v)", cfg.Records-1, len(v), err)
	}
	if st.puts != 0 || st.putManys != 3 {
		t.Fatalf("preload made %d Put and %d PutMany calls, want 0 and 3", st.puts, st.putManys)
	}
}

// CountingStore wraps MemStore and counts its write calls.
type CountingStore struct {
	*store.MemStore
	puts, putManys int
}

// NewCountingStore returns an empty CountingStore.
func NewCountingStore() *CountingStore {
	return &CountingStore{MemStore: store.NewMemStore(0)}
}

func (c *CountingStore) Put(key uint64, value []byte) error {
	c.puts++
	return c.MemStore.Put(key, value)
}

func (c *CountingStore) PutMany(kvs []store.KV) error {
	c.putManys++
	return c.MemStore.PutMany(kvs)
}

func TestUniformCoverage(t *testing.T) {
	const n = 100
	g := NewUniform(rand.New(rand.NewSource(1)), n)
	seen := make(map[uint64]int)
	for i := 0; i < 20000; i++ {
		k := g.Next()
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		seen[k]++
	}
	if len(seen) != n {
		t.Fatalf("uniform generator covered %d/%d keys", len(seen), n)
	}
	// No key should be wildly over-represented (expected 200 each).
	for k, c := range seen {
		if c < 100 || c > 320 {
			t.Fatalf("key %d drawn %d times; uniformity broken", k, c)
		}
	}
}

func TestZipfianRange(t *testing.T) {
	g := NewZipfian(rand.New(rand.NewSource(2)), 600_000, 0.99)
	for i := 0; i < 50000; i++ {
		if k := g.Next(); k >= 600_000 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

// TestZipfianSkew verifies the defining property of the distribution: a
// tiny set of top-ranked keys receives a disproportionate share of draws,
// far beyond what a uniform distribution would give them.
func TestZipfianSkew(t *testing.T) {
	const n = 10_000
	const draws = 100_000
	g := NewZipfian(rand.New(rand.NewSource(3)), n, 0.99)
	topShare := 0
	rank0 := 0
	for i := 0; i < draws; i++ {
		r := g.Rank()
		if r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		if r < n/100 { // top 1% of ranks
			topShare++
		}
		if r == 0 {
			rank0++
		}
	}
	frac := float64(topShare) / draws
	if frac < 0.30 {
		t.Fatalf("top 1%% of keys drew only %.1f%% of accesses; not Zipfian", frac*100)
	}
	// The single hottest key alone must beat the uniform expectation
	// (draws/n = 10) by well over an order of magnitude.
	if rank0 < 200 {
		t.Fatalf("hottest key drawn %d times; too flat", rank0)
	}
}

func TestZipfianDeterminism(t *testing.T) {
	g1 := NewZipfian(rand.New(rand.NewSource(4)), 1000, 0.99)
	g2 := NewZipfian(rand.New(rand.NewSource(4)), 1000, 0.99)
	for i := 0; i < 1000; i++ {
		if g1.Next() != g2.Next() {
			t.Fatal("zipfian not deterministic under equal seeds")
		}
	}
}

func TestZipfianTheta(t *testing.T) {
	// Higher theta must concentrate more mass on rank 0.
	count0 := func(theta float64) int {
		g := NewZipfian(rand.New(rand.NewSource(5)), 10_000, theta)
		c := 0
		for i := 0; i < 50_000; i++ {
			if g.Rank() == 0 {
				c++
			}
		}
		return c
	}
	low, high := count0(0.5), count0(0.99)
	if high <= low {
		t.Fatalf("theta=0.99 hottest-key count (%d) not above theta=0.5 (%d)", high, low)
	}
}

func TestShardOfStableAndInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		for key := uint64(0); key < 10_000; key++ {
			sh := ShardOf(key, shards)
			if sh < 0 || sh >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", key, shards, sh)
			}
			if sh != ShardOf(key, shards) {
				t.Fatalf("ShardOf(%d, %d) not stable", key, shards)
			}
		}
	}
	if ShardOf(42, 0) != 0 || ShardOf(42, 1) != 0 || ShardOf(42, -3) != 0 {
		t.Fatal("ShardOf must collapse to shard 0 for shards ≤ 1")
	}
}

// TestShardOfSpreadsZipfianWrites: the point of the partition hash is that
// a skewed workload still keeps every execution shard busy — the hot keys
// must not cluster on one shard.
func TestShardOfSpreadsZipfianWrites(t *testing.T) {
	w, err := New(Config{Records: 4096, OpsPerTxn: 4, ValueSize: 8,
		Distribution: Zipf, Seed: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	counts := make([]int, shards)
	total := 0
	for i := 0; i < 500; i++ {
		txn := w.NextTransaction(1, uint64(i+1))
		for _, key := range WriteSet(&txn) {
			counts[ShardOf(key, shards)]++
			total++
		}
	}
	for sh, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d got no writes: %v", sh, counts)
		}
		if c > total/2 {
			t.Fatalf("shard %d got %d of %d writes — hot keys clustered", sh, c, total)
		}
	}
}

func TestWriteSetMatchesOps(t *testing.T) {
	w, err := New(Config{Records: 100, OpsPerTxn: 3, ValueSize: 4,
		Distribution: Uniform, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	txn := w.NextTransaction(7, 1)
	keys := WriteSet(&txn)
	if len(keys) != len(txn.Ops) {
		t.Fatalf("WriteSet has %d keys for %d ops", len(keys), len(txn.Ops))
	}
	for i := range keys {
		if keys[i] != txn.Ops[i].Key {
			t.Fatalf("WriteSet[%d] = %d, want %d", i, keys[i], txn.Ops[i].Key)
		}
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	g := NewZipfian(rand.New(rand.NewSource(1)), 600_000, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkWorkloadNextRequest(b *testing.B) {
	w, err := New(Default(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.NextRequest(1, uint64(i), 1)
	}
}
