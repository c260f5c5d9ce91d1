package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"treaty"
	"treaty/internal/workload"
)

// phase is what one closed-loop phase observed.
type phase struct {
	attempted, failed int
	// lats holds the latency of every successful transaction.
	lats    []time.Duration
	elapsed time.Duration
	// spans are the phase's spans, when it was traced.
	spans []span
	// gets counts the reads issued.
	gets int
	// errs counts the failed attempts by error message.
	errs map[string]int
}

func (p phase) committed() int { return p.attempted - p.failed }

// tps is successful transactions per second of the phase's wall time.
func (p phase) tps() float64 { return float64(p.committed()) / p.elapsed.Seconds() }

// drive runs each worker in its own goroutine, each sending its next
// transaction only when the previous one has returned, until d has
// passed or, when txns > 0, the worker has sent txns transactions; a
// transaction running at the deadline finishes and counts, and the
// phase's wall time runs until the last one returns. begins[i] starts
// worker i's transactions; logs[i], when logs is non-nil, records them.
func drive(workers []worker, begins []workload.Begin, logs []*spanLog, d time.Duration, txns int) phase {
	var (
		mu  sync.Mutex
		out = phase{errs: map[string]int{}}
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for i := range workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				local = phase{errs: map[string]int{}}
				log   *spanLog
			)
			if logs != nil {
				log = logs[i]
			}
			begin := countingBegin(begins[i], &local.gets)
			for time.Now().Before(deadline) && (txns == 0 || local.attempted < txns) {
				t0 := time.Now()
				log.startTxn(t0)
				err := workers[i].run(begin)
				lat := time.Since(t0)
				log.endTxn()
				local.attempted++
				if err != nil {
					local.failed++
					local.errs[err.Error()]++
					continue
				}
				local.lats = append(local.lats, lat)
			}
			mu.Lock()
			defer mu.Unlock()
			out.attempted += local.attempted
			out.failed += local.failed
			out.gets += local.gets
			for e, n := range local.errs {
				out.errs[e] += n
			}
			out.lats = append(out.lats, local.lats...)
			if log != nil {
				out.spans = append(out.spans, log.spans...)
			}
		}(i)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	sortDurations(out.lats)
	return out
}

// reportFailures writes the phase's failed attempts by error to
// standard error.
func (p phase) reportFailures(name string) {
	for e, n := range p.errs {
		fmt.Fprintf(os.Stderr, "%s phase: %d attempts failed: %s\n", name, n, e)
	}
}

// countingBegin wraps begin so the transactions it starts count reads.
func countingBegin(begin workload.Begin, gets *int) workload.Begin {
	return func() workload.Txn { return &countingTxn{Txn: begin(), gets: gets} }
}

type countingTxn struct {
	workload.Txn
	gets *int
}

func (t *countingTxn) Get(key []byte) ([]byte, bool, error) {
	*t.gets++
	return t.Txn.Get(key)
}

// clientBegin starts transactions on the client path. A failed BeginTxn
// yields a transaction whose every call returns the error.
func clientBegin(c *treaty.Client) workload.Begin {
	return func() workload.Txn {
		tx, err := c.BeginTxn()
		if err != nil {
			return failedTxn{err}
		}
		return clientTxn{tx}
	}
}

// directBegin starts transactions at a coordinator node, skipping the
// client session.
func directBegin(n *treaty.Node) workload.Begin {
	return func() workload.Txn { return n.Begin(nil) }
}

// clientTxn adapts a client transaction to workload.Txn.
type clientTxn struct{ tx *treaty.ClientTxn }

func (t clientTxn) Get(key []byte) ([]byte, bool, error) { return t.tx.TxnGet(key) }
func (t clientTxn) Put(key, value []byte) error          { return t.tx.TxnPut(key, value) }
func (t clientTxn) Commit() error                        { return t.tx.TxnCommit() }
func (t clientTxn) Rollback() error                      { return t.tx.TxnRollback() }

type failedTxn struct{ err error }

func (t failedTxn) Get([]byte) ([]byte, bool, error) { return nil, false, t.err }
func (t failedTxn) Put([]byte, []byte) error         { return t.err }
func (t failedTxn) Commit() error                    { return t.err }
func (t failedTxn) Rollback() error                  { return nil }

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
}

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
