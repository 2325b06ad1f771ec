package store_test

import (
	"math/rand"
	"testing"

	"resilientdb/internal/store"
	"resilientdb/internal/workload"
)

// BenchmarkTablePutManyCold is the record table's write path as a replica
// runs it, not as a warm loop does: four 100 K-record tables (backup-crash's
// four replicas in one process) overwritten in YCSB Zipf batches of 256
// 100-byte values, round-robin, with a 4 MiB sweep of other memory between
// batches so each batch finds the caches as the rest of the pipeline left
// them. Only the PutMany calls are timed; ns/put is their time per record.
func BenchmarkTablePutManyCold(b *testing.B) {
	const tables, records, batch, batches, valueSize = 4, 100_000, 256, 256, 100
	cfg := workload.Default()
	cfg.Records, cfg.ValueSize = records, valueSize
	stores := make([]*store.MemStore, tables)
	for i := range stores {
		stores[i] = store.NewMemStore(records)
		if err := workload.InitTable(stores[i], cfg); err != nil {
			b.Fatal(err)
		}
	}
	zipf := workload.NewZipfian(rand.New(rand.NewSource(13)), records, 0.99)
	val := make([]byte, valueSize)
	kvs := make([][]store.KV, batches)
	for i := range kvs {
		kvs[i] = make([]store.KV, batch)
		for j := range kvs[i] {
			kvs[i][j] = store.KV{Key: zipf.Next(), Value: val}
		}
	}
	sweep := make([]byte, 4<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < len(sweep); j += 64 {
			sweep[j]++
		}
		val[0] = byte(i)
		b.StartTimer()
		if err := stores[i%tables].PutMany(kvs[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/put")
}
