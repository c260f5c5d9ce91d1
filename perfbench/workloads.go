package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"treaty"
	"treaty/internal/audit"
	"treaty/internal/lsm"
	"treaty/internal/workload"
)

// valueSize is the paper's YCSB value size.
const valueSize = 1000

// bench is one workload: how to load a fresh cluster, the transactions
// each client sends, and how to check the outputs afterwards.
type bench interface {
	// load preloads a freshly booted cluster (part of set-up).
	load(c *treaty.Cluster, seed int64) error
	// worker returns client i's transaction stream; the same (i, seed)
	// always yields the same transactions.
	worker(i int, seed int64) worker
	// check verifies the cluster's state and every observed output once
	// no transaction is running.
	check(c *treaty.Cluster) error
	// gate fails a run whose measured phase did not exercise the layer
	// the workload exists for.
	gate(d delta, committed int) error
	// sampleKey draws a preloaded key, for timing engine reads.
	sampleKey(rng *rand.Rand) []byte
}

// worker produces one client's transactions.
type worker interface {
	// run executes one transaction attempt through begin; nil means it
	// succeeded.
	run(begin workload.Begin) error
}

// newBench returns the named workload.
func newBench(name string) (bench, error) {
	switch name {
	case "ycsb-write":
		return &ycsb{keys: 10_000, readRatio: 0.2}, nil
	case "ycsb-ro-large":
		return &ycsb{keys: 150_000, readRatio: 1}, nil
	case "tpcc-10w":
		return &tpcc{cfg: workload.TPCCConfig{
			Warehouses:            10,
			DistrictsPerWarehouse: 10,
			CustomersPerDistrict:  60,
			Items:                 1000,
		}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ycsb-write, ycsb-ro-large or tpcc-10w)", name)
}

// ycsb is uniform YCSB over a preloaded key space. Every write carries a
// unique value from the audit recorder, so the history can be checked
// for serializability after the run.
type ycsb struct {
	keys      int
	readRatio float64
	rec       *audit.Recorder // reset by every load

	mu  sync.Mutex
	bad []string // wrong reads seen by workers
}

func ycsbKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// A stored YCSB value is filler followed by the unique tag the audit
// recorder minted for the write ("#a<txn>.<n>"), valueSize bytes in all.
// The recorder keeps only the tag, so a history of thousands of
// transactions stays small.
const filler = 'v'

func storedValue(tag []byte) []byte {
	return append(bytes.Repeat([]byte{filler}, valueSize-len(tag)), tag...)
}

// recordedValue returns the tag of a stored value, or false when v is
// not one.
func recordedValue(v []byte) ([]byte, bool) {
	i := bytes.IndexByte(v, '#')
	if len(v) != valueSize || i < 0 || len(bytes.Trim(v[:i], string(filler))) != 0 {
		return nil, false
	}
	return v[i:], true
}

// load writes every key once, recorded as committed harness
// transactions that anchor each key's version chain, and fences the
// recorder so later reads may assume the keys exist. Each harness
// transaction records 100 keys: the checker's work per transaction
// grows with the square of its writes.
func (y *ycsb) load(c *treaty.Cluster, _ int64) error {
	const keysPerRecord = 100
	y.rec = audit.NewRecorder()
	l := newLoader(c)
	var pre *audit.TxnRec
	for i := 0; i < y.keys; i++ {
		if i%keysPerRecord == 0 {
			pre.End(audit.OutcomeCommitted)
			pre = y.rec.Begin(-1)
		}
		k := ycsbKey(i)
		if err := l.Put(k, storedValue(pre.Write(k, ""))); err != nil {
			return err
		}
		if i%loadBatch == loadBatch-1 {
			if err := l.Commit(); err != nil {
				return err
			}
		}
	}
	if err := l.finish(); err != nil {
		return err
	}
	pre.End(audit.OutcomeCommitted)
	y.rec.Fence()
	return nil
}

func (y *ycsb) worker(i int, seed int64) worker {
	return &ycsbWorker{y: y, client: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
}

func (y *ycsb) sampleKey(rng *rand.Rand) []byte { return ycsbKey(rng.Intn(y.keys)) }

// fail records a wrong output seen by a worker.
func (y *ycsb) fail(format string, args ...any) {
	y.mu.Lock()
	defer y.mu.Unlock()
	y.bad = append(y.bad, fmt.Sprintf(format, args...))
}

func (y *ycsb) check(*treaty.Cluster) error {
	y.mu.Lock()
	defer y.mu.Unlock()
	if len(y.bad) > 0 {
		return fmt.Errorf("%d wrong reads, first: %s", len(y.bad), y.bad[0])
	}
	if n := y.rec.Open(); n != 0 {
		return fmt.Errorf("audit: %d transactions still open", n)
	}
	hist := y.rec.History()
	if len(hist) == 0 {
		return errors.New("audit: empty history")
	}
	return audit.Check(hist).Err()
}

func (y *ycsb) gate(d delta, committed int) error {
	if y.readRatio < 1 {
		if d["twopc.clog.syncs"] == 0 || d["counter.rounds"] == 0 {
			return fmt.Errorf("gate: commit path idle (clog syncs %d, counter rounds %d)",
				d["twopc.clog.syncs"], d["counter.rounds"])
		}
		return nil
	}
	if votes := d["twopc.part.readonly_votes"]; votes < uint64(committed) {
		return fmt.Errorf("gate: %d read-only votes for %d committed transactions", votes, committed)
	}
	// The 150k-key working set must not fit the block cache: the full
	// cache keeps evicting and at least a fifth of the lookups miss.
	lookups, misses, evictions := d["lsm.cache.lookups"], d["lsm.cache.misses"], d["lsm.cache.evictions"]
	if evictions == 0 || misses*5 < lookups {
		return fmt.Errorf("gate: working set fits the cache (%d misses in %d lookups, %d evictions)",
			misses, lookups, evictions)
	}
	return nil
}

// ycsbWorker draws uniform keys; each operation reads with probability
// readRatio and writes otherwise.
type ycsbWorker struct {
	y      *ycsb
	client int
	rng    *rand.Rand
}

// opsPerTxn is the paper's YCSB transaction length.
const opsPerTxn = 10

// txnKeys draws opsPerTxn distinct uniform keys in ascending order.
// Under strict two-phase locking every transaction then takes its locks
// in one global order and never upgrades a shared lock, so two clients
// cannot deadlock: a deadlock would end in a lock timeout and a failed
// attempt, at random and at the cost of a second of a client's time.
func (w *ycsbWorker) txnKeys() []int {
	seen := make(map[int]bool, opsPerTxn)
	ids := make([]int, 0, opsPerTxn)
	for len(ids) < opsPerTxn {
		if k := w.rng.Intn(w.y.keys); !seen[k] {
			seen[k] = true
			ids = append(ids, k)
		}
	}
	sort.Ints(ids)
	return ids
}

func (w *ycsbWorker) run(begin workload.Begin) error {
	rec := w.y.rec.Begin(w.client)
	tx := begin()
	for _, id := range w.txnKeys() {
		key := ycsbKey(id)
		if w.rng.Float64() < w.y.readRatio {
			v, found, err := tx.Get(key)
			if err != nil {
				_ = tx.Rollback()
				rec.End(audit.OutcomeAborted)
				return err
			}
			tag, ok := recordedValue(v)
			switch {
			case !found:
				w.y.fail("preloaded key %s not found", key)
			case !ok:
				w.y.fail("key %s holds a value no client wrote: %.40q", key, v)
			}
			rec.Read(key, tag, found)
			continue
		}
		if err := tx.Put(key, storedValue(rec.Write(key, ""))); err != nil {
			_ = tx.Rollback()
			rec.End(audit.OutcomeAborted)
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		// A failed commit may still land: recovery can finish it.
		rec.End(audit.OutcomeIndeterminate)
		return err
	}
	rec.End(audit.OutcomeCommitted)
	return nil
}

// tpcc is the standard TPC-C mix at a scaled row population.
type tpcc struct {
	cfg workload.TPCCConfig
}

func (t *tpcc) load(c *treaty.Cluster, seed int64) error {
	l := newLoader(c)
	if err := workload.NewTPCC(t.cfg, seed).Load(func() workload.Txn { return l }, loadBatch); err != nil {
		return err
	}
	return l.finish()
}

// worker homes client i on warehouse i+1.
func (t *tpcc) worker(i int, seed int64) worker {
	return &tpccWorker{d: workload.NewTPCC(t.cfg, seed*1000+int64(i)), home: 1 + i%t.cfg.Warehouses}
}

func (t *tpcc) sampleKey(rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf("s:%04d:%06d", 1+rng.Intn(t.cfg.Warehouses), 1+rng.Intn(t.cfg.Items)))
}

// check verifies that every district's next order id − 1 is its highest
// order: New-Order bumps both in one transaction, so a lost, torn or
// doubly applied commit breaks the equality.
func (t *tpcc) check(c *treaty.Cluster) error {
	for w := 1; w <= t.cfg.Warehouses; w++ {
		for d := 1; d <= t.cfg.DistrictsPerWarehouse; d++ {
			row, err := getCommitted(c, []byte(fmt.Sprintf("d:%04d:%02d", w, d)))
			if err != nil {
				return err
			}
			if len(row) < 16 {
				return fmt.Errorf("district %d/%d: short row", w, d)
			}
			next := binary.LittleEndian.Uint32(row[12:16])
			top, err := highestOrder(c, fmt.Sprintf("o:%04d:%02d:", w, d))
			if err != nil {
				return err
			}
			if top != uint64(next)-1 {
				return fmt.Errorf("district %d/%d: next order id %d but highest order %d", w, d, next, top)
			}
		}
	}
	return nil
}

func (t *tpcc) gate(d delta, committed int) error {
	if committed == 0 || d["twopc.part.prepares"] <= uint64(committed) {
		return fmt.Errorf("gate: %d participant prepares for %d transactions, want more than one each",
			d["twopc.part.prepares"], committed)
	}
	return nil
}

type tpccWorker struct {
	d    *workload.TPCC
	home int
}

// run counts the spec's user rollbacks as successes.
func (w *tpccWorker) run(begin workload.Begin) error {
	err := w.d.Run(begin, w.d.NextType(), w.home)
	if errors.Is(err, workload.ErrAbortedByUser) {
		return nil
	}
	return err
}

// getCommitted reads key's newest committed value from its owner's
// engine.
func getCommitted(c *treaty.Cluster, key []byte) ([]byte, error) {
	n := ownerOf(c, key)
	v, _, found, err := n.DB().Get(key, n.DB().LatestSeq())
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", key, err)
	}
	if !found {
		return nil, fmt.Errorf("get %s: not found", key)
	}
	return v, nil
}

// highestOrder scans every node's engine for the largest order id under
// prefix (0 when there is none).
func highestOrder(c *treaty.Cluster, prefix string) (uint64, error) {
	var top uint64
	for i := 0; i < c.Nodes(); i++ {
		db := c.Node(i).DB()
		it, err := db.NewIterator(db.LatestSeq())
		if err != nil {
			return 0, err
		}
		for it.Seek([]byte(prefix)); it.Valid() && bytes.HasPrefix(it.Key(), []byte(prefix)); it.Next() {
			id, err := strconv.ParseUint(string(it.Key()[len(prefix):]), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("order key %q: %w", it.Key(), err)
			}
			top = max(top, id)
		}
		if err := it.Err(); err != nil {
			return 0, err
		}
	}
	return top, nil
}

// ownerOf returns the node the shard map assigns key to.
func ownerOf(c *treaty.Cluster, key []byte) *treaty.Node {
	addr := c.Node(0).Shard().View().Owner(key)
	for i := 0; i < c.Nodes(); i++ {
		if c.Node(i).Addr() == addr {
			return c.Node(i)
		}
	}
	panic("perfbench: shard map names no live node for " + string(key))
}

// loadBatch is how many preload writes go to the engines at once.
const loadBatch = 2000

// loader writes preload data straight into each owner node's engine,
// outside 2PC, routed by the same shard map the nodes enforce. It is the
// workload.Txn the TPC-C loader drives; it never reads.
type loader struct {
	c       *treaty.Cluster
	batches map[*treaty.Node]*lsm.Batch
	keys    [][]byte // every key put, for the cache-warming pass
}

func newLoader(c *treaty.Cluster) *loader {
	return &loader{c: c, batches: map[*treaty.Node]*lsm.Batch{}}
}

func (l *loader) Get([]byte) ([]byte, bool, error) { return nil, false, nil }

func (l *loader) Put(key, value []byte) error {
	n := ownerOf(l.c, key)
	b, ok := l.batches[n]
	if !ok {
		b = lsm.NewBatch()
		l.batches[n] = b
	}
	b.Put(key, value)
	l.keys = append(l.keys, key)
	return nil
}

// Commit applies the buffered writes.
func (l *loader) Commit() error {
	for n, b := range l.batches {
		if _, _, err := n.DB().Apply(b); err != nil {
			return fmt.Errorf("preload %s: %w", n.Addr(), err)
		}
	}
	clear(l.batches)
	return nil
}

func (l *loader) Rollback() error {
	clear(l.batches)
	return nil
}

// finish applies what is left and flushes every memtable, so measured
// reads go through SSTables and the block cache. It then reads every key
// once at its owner's engine, so the block caches start the measurement
// full — in their steady state — rather than filling during it.
func (l *loader) finish() error {
	if err := l.Commit(); err != nil {
		return err
	}
	for i := 0; i < l.c.Nodes(); i++ {
		if err := l.c.Node(i).DB().Flush(); err != nil {
			return fmt.Errorf("flush %s: %w", l.c.Node(i).Addr(), err)
		}
	}
	for _, k := range l.keys {
		db := ownerOf(l.c, k).DB()
		if _, _, found, err := db.Get(k, db.LatestSeq()); err != nil || !found {
			return fmt.Errorf("warm %s: found %t: %v", k, found, err)
		}
	}
	return nil
}
