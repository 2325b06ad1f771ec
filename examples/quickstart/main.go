// Quickstart: run a 4-replica PBFT cluster in one process, drive it with
// closed-loop YCSB clients for a couple of seconds, then inspect the
// blockchain every replica built.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"resilientdb"
)

func main() {
	wl := resilientdb.DefaultWorkload()
	wl.Records = 10_000 // keep the demo table small

	c, err := resilientdb.NewCluster(resilientdb.ClusterOptions{
		N:         4,
		Clients:   8,
		BatchSize: 16,
		Crypto:    resilientdb.RecommendedCrypto(),
		Workload:  wl,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	fmt.Println("running 8 clients against 4 replicas for 2s...")
	res := c.Run(context.Background(), 2*time.Second)
	fmt.Printf("result: %s\n\n", res)

	// Every replica independently maintains the blockchain (Section 2.2);
	// verify the chains validate and agree.
	if err := c.VerifyLedgers(nil); err != nil {
		log.Fatalf("ledger verification failed: %v", err)
	}
	fmt.Println("all 4 ledgers validate and agree ✓")

	// Walk the tail of replica 0's chain: each block binds a batch digest,
	// and the newest stable checkpoint's certificate — 2f+1 replicas'
	// signatures over a digest of every header since the previous one —
	// proves the blocks it covers to anyone holding the node keys
	// (Section 4.6).
	led := c.Replica(0).Ledger()
	fmt.Printf("\nreplica 0 chain height: %d\n", led.Height())
	blocks := led.Blocks()
	from := len(blocks) - 3
	if from < 0 {
		from = 0
	}
	for _, b := range blocks[from:] {
		fmt.Printf("  block %4d  seq=%-4d view=%d txns=%-4d digest=%x\n",
			b.Height, b.Seq, b.View, b.TxnCount, b.Digest[:6])
	}
	if cert := led.Certificate(); cert.Seq > 0 {
		signers := make([]int, len(cert.Sigs))
		for i := range cert.Sigs {
			signers[i] = int(cert.Sigs[i].Replica)
		}
		fmt.Printf("  newest certificate: seq=%d digest=%x signed by replicas %v; blocks above it are committed, not yet certified\n",
			cert.Seq, cert.Digest[:6], signers)
	}

	// The execution layer applied every write to the record store.
	fmt.Printf("\nreplica 0 store holds %d records after execution\n", c.Replica(0).Store().Len())
	s := c.Replica(0).Stats()
	fmt.Printf("replica 0 pipeline: txns=%d batches=%d msgs in/out=%d/%d view=%d\n",
		s.TxnsExecuted, s.BatchesExecuted, s.MsgsIn, s.MsgsOut, s.View)
}
