package batchsvc

import (
	"sync"
	"testing"
)

// TestRefreshWhileServing hammers Meta and BatchOf while the chain grows
// directly under the server. Each request pins the framework's epoch, and the
// first request after a growth refreshes it (the framework's catch-up); run
// with -race to check that the refresh and the pinned readers share nothing
// mutable.
func TestRefreshWhileServing(t *testing.T) {
	l := buildChain(t)
	c := startServer(t, l, 8)

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Meta(); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.BatchOf(0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Writer: append a block with one transaction, repeat. The ledger
	// serialises its own mutators; nothing tells the server it grew.
	for i := 0; i < 25; i++ {
		id := l.BeginBlock()
		if _, err := l.AddTx(id, 2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	m, err := c.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if m.Blocks != 3+25 || m.Tokens != 24+50 {
		t.Fatalf("final meta = %+v", m)
	}
}
