package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"treaty/internal/workload"
)

// span is one timed call the benchmark made: a whole transaction, or one
// public call inside it. The spans of one transaction share Txn; a
// call's Parent is its transaction's span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Txn    uint64 `json:"txn"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced phase began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// spanLog keeps one client's spans in memory. A nil log records nothing.
// It is used by its client's goroutine only.
type spanLog struct {
	base   time.Time
	prefix uint64 // client number in the id's high bits
	next   uint64
	txn    span // the open transaction's span
	spans  []span
}

func newSpanLog(base time.Time, client int) *spanLog {
	return &spanLog{base: base, prefix: uint64(client+1) << 40}
}

func (l *spanLog) id() uint64 {
	l.next++
	return l.prefix | l.next
}

func (l *spanLog) startTxn(t0 time.Time) {
	if l == nil {
		return
	}
	id := l.id()
	l.txn = span{ID: id, Txn: id, Name: "txn", Start: t0.Sub(l.base).Nanoseconds()}
}

func (l *spanLog) endTxn() {
	if l == nil {
		return
	}
	l.txn.End = time.Since(l.base).Nanoseconds()
	l.spans = append(l.spans, l.txn)
}

// record times fn as a call of the open transaction.
func (l *spanLog) record(name string, fn func()) {
	t0 := time.Now()
	fn()
	l.spans = append(l.spans, span{
		ID: l.id(), Parent: l.txn.ID, Txn: l.txn.Txn, Name: name,
		Start: t0.Sub(l.base).Nanoseconds(), End: time.Since(l.base).Nanoseconds(),
	})
}

// tracedBegin wraps begin so each transaction's calls become spans.
func tracedBegin(begin workload.Begin, l *spanLog) workload.Begin {
	return func() workload.Txn {
		var tx workload.Txn
		l.record("begin", func() { tx = begin() })
		return &tracedTxn{tx: tx, l: l}
	}
}

type tracedTxn struct {
	tx workload.Txn
	l  *spanLog
}

func (t *tracedTxn) Get(key []byte) (v []byte, found bool, err error) {
	t.l.record("get", func() { v, found, err = t.tx.Get(key) })
	return v, found, err
}

func (t *tracedTxn) Put(key, value []byte) (err error) {
	t.l.record("put", func() { err = t.tx.Put(key, value) })
	return err
}

func (t *tracedTxn) Commit() (err error) {
	t.l.record("commit", func() { err = t.tx.Commit() })
	return err
}

func (t *tracedTxn) Rollback() (err error) {
	t.l.record("rollback", func() { err = t.tx.Rollback() })
	return err
}

// spanDurations returns the sorted durations of the spans named any of
// names.
func spanDurations(spans []span, names ...string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, time.Duration(s.End-s.Start))
			}
		}
	}
	sortDurations(out)
	return out
}

// profiler captures CPU, mutex and block profiles around the traced
// phase.
type profiler struct {
	dir string
	cpu *os.File
}

// startProfiles begins profiling into dir.
func startProfiles(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	// Sample one mutex contention event in 100 and one blocking event
	// per 100 µs blocked: enough to rank waits, cheap enough to leave the
	// traced phase's throughput comparable with the untraced one.
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(int((100 * time.Microsecond).Nanoseconds()))
	return &profiler{dir: dir, cpu: f}, nil
}

// stop ends profiling and writes the mutex and block profiles.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
	if err := p.cpu.Close(); err != nil {
		return err
	}
	for _, name := range []string{"mutex", "block"} {
		if err := writeProfile(filepath.Join(p.dir, name+".pprof"), name); err != nil {
			return err
		}
	}
	return nil
}

func writeProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
