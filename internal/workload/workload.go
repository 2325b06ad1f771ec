// Package workload implements the application layer of the evaluation
// (paper Figure 5 and Section 5.1): a YCSB-style benchmark in which each
// client transaction indexes a table with an active set of 600K records,
// with keys drawn from a Zipfian (or uniform) distribution. Transactions
// are write-only by default; read and scan fractions (or a YCSB A/B/C/E
// preset) mix read-only and range-scan transactions into the same
// deterministic streams.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"resilientdb/internal/store"
	"resilientdb/internal/types"
)

// Distribution selects how keys are drawn from the record space.
type Distribution int

// Supported key distributions.
const (
	// Zipf draws keys from the YCSB Zipfian distribution (the paper's
	// "uniform Zipfian" with the standard YCSB constant).
	Zipf Distribution = iota + 1
	// Uniform draws keys uniformly at random.
	Uniform
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Zipf:
		return "zipfian"
	case Uniform:
		return "uniform"
	default:
		return "invalid"
	}
}

// zipfTheta is the YCSB Zipfian skew constant.
const zipfTheta = 0.99

// Config describes a YCSB workload.
type Config struct {
	// Records is the active record set size; the paper uses 600K.
	Records uint64
	// OpsPerTxn is the number of write operations per transaction
	// (Section 5.4 varies this from 1 to 50).
	OpsPerTxn int
	// ValueSize is the size in bytes of each written value.
	ValueSize int
	// PayloadSize adds opaque bytes to each transaction to inflate message
	// size (Section 5.5).
	PayloadSize int
	// Distribution selects the key distribution; Zipf by default, with
	// the YCSB skew constant zipfTheta.
	Distribution Distribution
	// ReadFraction is the probability a transaction is read-only, per the
	// YCSB mix convention. The knob convention applies: 0 keeps the default
	// (write-only, the seed behaviour), -1 disables reads explicitly,
	// anything in (0, 1] mixes that fraction of read transactions into the
	// stream. Mutually exclusive with Preset.
	ReadFraction float64
	// ScanFraction is the probability a transaction is a range scan, per
	// the YCSB-E mix convention. Same knob convention as ReadFraction: 0
	// default (no scans), -1 explicitly disabled, (0, 1] mixes that
	// fraction of scan transactions in. ReadFraction + ScanFraction must
	// not exceed 1; the remainder is writes. Mutually exclusive with
	// Preset.
	ScanFraction float64
	// ScanLength is the maximum rows per scan: each scan op covers a span
	// of 1..ScanLength keys drawn uniformly (the YCSB-E shape). 0 means
	// the default (DefaultScanLength).
	ScanLength int
	// Preset selects a standard YCSB mix by name: "a" (50% reads),
	// "b" (95% reads), "c" (read-only), or "e" (95% scans, 5% writes).
	// Empty means no preset; setting both Preset and ReadFraction or
	// ScanFraction is a configuration error.
	Preset string
	// Seed makes the workload reproducible.
	Seed int64
}

// Default returns the paper's standard workload: 600K records, single-op
// write-only transactions with 100-byte values, Zipfian keys.
func Default() Config {
	return Config{
		Records:      600_000,
		OpsPerTxn:    1,
		ValueSize:    100,
		Distribution: Zipf,
		Seed:         1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Records == 0 {
		return fmt.Errorf("workload: Records must be positive")
	}
	if c.OpsPerTxn < 1 {
		return fmt.Errorf("workload: OpsPerTxn must be ≥ 1, got %d", c.OpsPerTxn)
	}
	if c.ValueSize < 0 || c.PayloadSize < 0 {
		return fmt.Errorf("workload: sizes must be non-negative")
	}
	switch c.Distribution {
	case Zipf, Uniform:
	default:
		return fmt.Errorf("workload: invalid distribution %d", c.Distribution)
	}
	if c.ReadFraction != -1 && (c.ReadFraction < 0 || c.ReadFraction > 1) {
		return fmt.Errorf("workload: ReadFraction must be in [0,1] or -1 (disabled), got %g", c.ReadFraction)
	}
	if c.ScanFraction != -1 && (c.ScanFraction < 0 || c.ScanFraction > 1) {
		return fmt.Errorf("workload: ScanFraction must be in [0,1] or -1 (disabled), got %g", c.ScanFraction)
	}
	if c.ReadFraction > 0 && c.ScanFraction > 0 && c.ReadFraction+c.ScanFraction > 1 {
		return fmt.Errorf("workload: ReadFraction %g + ScanFraction %g exceeds 1", c.ReadFraction, c.ScanFraction)
	}
	if c.ScanLength < 0 {
		return fmt.Errorf("workload: ScanLength must be non-negative, got %d", c.ScanLength)
	}
	switch c.Preset {
	case "", "a", "b", "c", "e":
	default:
		return fmt.Errorf("workload: unknown preset %q (want a, b, c, or e)", c.Preset)
	}
	if c.Preset != "" && c.ReadFraction != 0 {
		return fmt.Errorf("workload: Preset %q conflicts with explicit ReadFraction %g; set one",
			c.Preset, c.ReadFraction)
	}
	if c.Preset != "" && c.ScanFraction != 0 {
		return fmt.Errorf("workload: Preset %q conflicts with explicit ScanFraction %g; set one",
			c.Preset, c.ScanFraction)
	}
	return nil
}

// readFraction resolves the effective read fraction from the preset and
// the explicit knob (0 = default = write-only, -1 = disabled).
func (c Config) readFraction() float64 {
	switch c.Preset {
	case "a":
		return 0.5
	case "b":
		return 0.95
	case "c":
		return 1.0
	}
	if c.ReadFraction <= 0 {
		return 0
	}
	return c.ReadFraction
}

// scanFraction resolves the effective scan fraction from the preset and
// the explicit knob (0 = default = no scans, -1 = disabled).
func (c Config) scanFraction() float64 {
	if c.Preset == "e" {
		return 0.95
	}
	if c.ScanFraction <= 0 {
		return 0
	}
	return c.ScanFraction
}

// DefaultScanLength is the maximum scan span when ScanLength is 0, the
// standard YCSB-E max scan length.
const DefaultScanLength = 100

// scanLength resolves the effective maximum scan span.
func (c Config) scanLength() int {
	if c.ScanLength == 0 {
		return DefaultScanLength
	}
	return c.ScanLength
}

// Generator draws keys from the configured distribution. Generators are
// not safe for concurrent use; create one per client goroutine.
type Generator interface {
	// Next returns the next key in [0, Records).
	Next() uint64
}

// Workload builds transactions and client requests for one client.
type Workload struct {
	cfg      Config
	gen      Generator
	rnd      *rand.Rand
	fill     byte
	readFrac float64
	scanFrac float64
	scanLen  int
}

// New creates a Workload for cfg. Each Workload owns an independent
// deterministic random stream derived from cfg.Seed and salt (pass the
// client identifier), so concurrent clients do not contend or correlate.
func New(cfg Config, salt int64) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(cfg.Seed*0x5DEECE66D + salt + 11))
	var gen Generator
	switch cfg.Distribution {
	case Uniform:
		gen = NewUniform(rnd, cfg.Records)
	default:
		gen = NewZipfian(rnd, cfg.Records, zipfTheta)
	}
	return &Workload{
		cfg: cfg, gen: gen, rnd: rnd, fill: byte(salt),
		readFrac: cfg.readFraction(), scanFrac: cfg.scanFraction(), scanLen: cfg.scanLength(),
	}, nil
}

// ReadFraction returns the effective read mix the workload runs with,
// after preset resolution.
func (w *Workload) ReadFraction() float64 { return w.readFrac }

// ScanFraction returns the effective scan mix the workload runs with,
// after preset resolution.
func (w *Workload) ScanFraction() float64 { return w.scanFrac }

// NextTransaction builds the next transaction for the client: read-only
// with probability ReadFraction, scan-only with probability ScanFraction,
// write-only otherwise (the YCSB txn-level mix; scans are the YCSB-E
// shape, a uniform span of 1..ScanLength keys). With zero read and scan
// fractions the stream — including every byte of every value — is
// identical to the pre-read workload: the mix coin is only flipped when
// reads or scans are configured, so it perturbs no draws, and streams
// with reads but no scans draw exactly as they did before scans existed.
// It is Fill into a fresh op array; the value slab is sized for what the
// transaction writes.
func (w *Workload) NextTransaction(client types.ClientID, clientSeq uint64) types.Transaction {
	var txn [1]types.Transaction
	w.Fill(client, clientSeq, txn[:], make([]types.Op, w.cfg.OpsPerTxn), nil)
	return txn[0]
}

// NextRequest builds a client request carrying a burst of txns transactions
// starting at clientSeq (client-side batching, Section 4.2). The request is
// unsigned; the client engine signs it. It is Fill into one transaction
// list, one operation slab and one byte slab of SlabSize — three
// allocations a request, not two a transaction and one more a value —
// which a request that goes straight to the encoder gives back together.
func (w *Workload) NextRequest(client types.ClientID, clientSeq uint64, txns int) types.ClientRequest {
	if txns < 1 {
		txns = 1
	}
	list := make([]types.Transaction, txns)
	w.Fill(client, clientSeq, list, make([]types.Op, txns*w.cfg.OpsPerTxn), make([]byte, w.SlabSize(txns)))
	return types.ClientRequest{
		Client:   client,
		FirstSeq: clientSeq,
		Txns:     list,
	}
}

// SlabSize is the byte slab Fill needs for txns transactions: sized for a
// burst of writes, the most a burst can need.
func (w *Workload) SlabSize(txns int) int {
	perTxn := w.cfg.PayloadSize
	if w.readFrac+w.scanFrac < 1 {
		perTxn += w.cfg.OpsPerTxn * w.cfg.ValueSize
	}
	return txns * perTxn
}

// Fill draws the next len(txns) transactions, at clientSeq onwards, into
// storage the caller owns: transaction i's Ops are OpsPerTxn elements of
// ops (which holds len(txns)×OpsPerTxn) and its values and payload are cut
// from slab, each clipped to its own length. A slab shorter than SlabSize
// is topped up by an allocation for the transactions it cannot hold. The
// draws, and so the stream's bytes, are the same whatever storage they
// land in: NextTransaction and NextRequest are Fill into fresh arrays.
func (w *Workload) Fill(client types.ClientID, clientSeq uint64, txns []types.Transaction, ops []types.Op, slab []byte) {
	per := w.cfg.OpsPerTxn
	for i := range txns {
		txns[i], slab = w.buildTransaction(client, clientSeq+uint64(i), ops[i*per:(i+1)*per:(i+1)*per], slab)
	}
}

// buildTransaction fills ops with the next transaction's operations and
// cuts its value and payload bytes from the front of slab, each cut
// clipped to its own length so that nothing appended to one value can
// reach the next. It returns what is left of the slab; a slab too short
// for this transaction is replaced by one that holds exactly it.
func (w *Workload) buildTransaction(client types.ClientID, clientSeq uint64, ops []types.Op, slab []byte) (types.Transaction, []byte) {
	readTxn, scanTxn := false, false
	if w.readFrac > 0 || w.scanFrac > 0 {
		u := w.rnd.Float64()
		readTxn = u < w.readFrac
		scanTxn = !readTxn && u < w.readFrac+w.scanFrac
	}
	need := w.cfg.PayloadSize
	if !readTxn && !scanTxn {
		need += len(ops) * w.cfg.ValueSize
	}
	if len(slab) < need {
		slab = make([]byte, need)
	}
	for i := range ops {
		if readTxn {
			ops[i] = types.Op{Kind: types.OpRead, Key: w.gen.Next()}
			continue
		}
		if scanTxn {
			key := w.gen.Next()
			span := uint64(1 + w.rnd.Intn(w.scanLen))
			ops[i] = types.Op{Kind: types.OpScan, Key: key, EndKey: key + span - 1, Limit: uint32(span)}
			continue
		}
		val := slab[:w.cfg.ValueSize:w.cfg.ValueSize]
		slab = slab[w.cfg.ValueSize:]
		for j := range val {
			val[j] = w.fill + byte(clientSeq) + byte(j)
		}
		ops[i] = types.Op{Key: w.gen.Next(), Value: val}
	}
	var payload []byte
	if w.cfg.PayloadSize > 0 {
		payload = slab[:w.cfg.PayloadSize:w.cfg.PayloadSize]
		slab = slab[w.cfg.PayloadSize:]
		for j := range payload {
			payload[j] = byte(j)
		}
	}
	return types.Transaction{
		Client:    client,
		ClientSeq: clientSeq,
		Ops:       ops,
		Payload:   payload,
	}, slab
}

// initChunk is how many records InitTable writes per PutMany.
const initChunk = 1024

// InitTable preloads st with the active record set so every replica starts
// from an identical copy of the table (Section 5.1). It writes initChunk
// records per call: on the disk store each call waits for a group commit.
func InitTable(st store.Store, cfg Config) error {
	val := make([]byte, cfg.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	kvs := make([]store.KV, 0, initChunk)
	for k := uint64(0); k < cfg.Records; k++ {
		kvs = append(kvs, store.KV{Key: k, Value: val})
		if len(kvs) == initChunk || k == cfg.Records-1 {
			if err := st.PutMany(kvs); err != nil {
				return fmt.Errorf("workload: preloading records %d-%d: %w", kvs[0].Key, k, err)
			}
			kvs = kvs[:0]
		}
	}
	return nil
}

// ---- Write-set partitioning ----
//
// The workload is write-only over a keyed record table (Section 5.1), so a
// transaction's write-set is exactly the keys of its operations and is
// known before execution. That makes conflict-free parallel execution
// possible: hash-partition the key space into E execution shards, give
// every shard worker only the operations whose keys it owns, and two
// workers can never write the same record. Within one shard, operations
// apply in batch order, so the final state is byte-identical to serial
// execution regardless of E.

// shardMix is the multiplicative hash spreading record keys across
// execution shards. It must be a fixed constant: every replica must agree
// on the partition, and a replica must agree with itself across restarts.
const shardMix = 0x9E3779B97F4A7C15

// ShardOf maps a record key to one of shards execution shards: the
// write-set partition hash the execute stage partitions batches with. The
// hash decorrelates the shard from the Zipfian popularity scramble and from
// MemStore's internal shard hash, so hot keys spread across execution
// shards instead of clustering on one.
func ShardOf(key uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(((key * shardMix) >> 32) % uint64(shards))
}

// WriteSet returns the keys txn writes, in operation order — the
// write-set whose ShardOf partition the execute stage applies (the
// replica partitions txn.Ops inline to keep the values alongside the
// keys). Exposed for tests and tooling that predict shard placement.
func WriteSet(txn *types.Transaction) []uint64 {
	keys := make([]uint64, len(txn.Ops))
	for i := range txn.Ops {
		keys[i] = txn.Ops[i].Key
	}
	return keys
}

// ---- Key generators ----

// UniformGen draws keys uniformly.
type UniformGen struct {
	rnd *rand.Rand
	n   uint64
}

var _ Generator = (*UniformGen)(nil)

// NewUniform returns a uniform generator over [0, n).
func NewUniform(rnd *rand.Rand, n uint64) *UniformGen {
	return &UniformGen{rnd: rnd, n: n}
}

// Next implements Generator.
func (u *UniformGen) Next() uint64 { return uint64(u.rnd.Int63n(int64(u.n))) }

// ZipfianGen draws keys from the YCSB Zipfian distribution (Gray et al.,
// "Quickly Generating Billion-Record Synthetic Databases"), under which the
// i-th most popular key has probability proportional to 1/i^theta.
// The popular keys are scattered across the key space by a multiplicative
// hash, as YCSB does, so hot keys do not cluster at low indices.
type ZipfianGen struct {
	rnd       *rand.Rand
	n         uint64
	theta     float64
	alpha     float64
	zetan     float64
	eta       float64
	zeta2     float64
	scrambled bool
}

var _ Generator = (*ZipfianGen)(nil)

// NewZipfian returns a scrambled Zipfian generator over [0, n) with skew
// theta in (0, 1).
func NewZipfian(rnd *rand.Rand, n uint64, theta float64) *ZipfianGen {
	z := &ZipfianGen{rnd: rnd, n: n, theta: theta, scrambled: true}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// Next implements Generator.
func (z *ZipfianGen) Next() uint64 {
	u := z.rnd.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1.0:
		rank = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1.0, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	if !z.scrambled {
		return rank
	}
	// FNV-style scramble into [0, n).
	return (rank * 0x9E3779B97F4A7C15) % z.n
}

// Rank returns the unscrambled popularity rank for the next draw; exposed
// for distribution tests.
func (z *ZipfianGen) Rank() uint64 {
	z.scrambled = false
	defer func() { z.scrambled = true }()
	return z.Next()
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}
