// Viewchange: crash the PBFT primary mid-run and watch the cluster elect
// a new one and keep committing. Clients that stop hearing back
// retransmit their requests to every replica; backups whose progress
// stalls vote to change views; replica 1 takes over as the view-1 primary.
//
//	go run ./examples/viewchange
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
	wl.Records = 5_000

	c, err := resilientdb.NewCluster(resilientdb.ClusterOptions{
		N:             4,
		Clients:       4,
		BatchSize:     8,
		Workload:      wl,
		ClientTimeout: 100 * time.Millisecond,
		ViewTimeout:   200 * time.Millisecond, // progress watchdog
		Seed:          11,
	})
	if err != nil {
		log.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	before := c.Run(context.Background(), 800*time.Millisecond)
	fmt.Printf("view 0 (replica 0 leads): %s\n", before)
	fmt.Printf("replica 1 view: %d, is primary: %v\n\n", c.Replica(1).Stats().View, c.Replica(1).IsPrimary())

	fmt.Println("crashing the primary (replica 0)...")
	c.Crash(0)

	after := c.Run(context.Background(), 3*time.Second)
	fmt.Printf("after view change: %s\n", after)
	for i := 1; i < 4; i++ {
		s := c.Replica(i).Stats()
		fmt.Printf("replica %d: view=%d primary=%v height=%d\n",
			i, s.View, c.Replica(i).IsPrimary(), s.LedgerHeight)
	}

	live := func(i int) bool { return i != 0 }
	if err := c.VerifyLedgers(live); err != nil {
		log.Fatalf("ledger divergence after view change: %v", err)
	}
	fmt.Println("\nsurviving ledgers validate and agree across the view change ✓")
}
