package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"p2kvs/internal/core"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/perfbench/internal/load"
	"p2kvs/perfbench/internal/sut"
)

// A traced run replays one window's op stream against three rungs of
// the stack, each timed from outside by spans around the calls into it:
//
//	resp    the RESP server on loopback (what the end-to-end run drives)
//	core    core.Store's GetCtx/PutCtx/MultiGetCtx/WriteCtx, called the way
//	        the server's pipeline coalescing calls them
//	engine  the per-worker LSM engines, routed by keyspace.Hash the way the
//	        store routes
//
// A rung's self time is its per-op time minus the next rung down's. The
// counters the layers export are read across the traced resp pass and
// its drain, the path the end-to-end run measures; the Go runtime's
// across that pass's window.

// span is one timed call into a layer. Spans of one pipeline window share
// req; a call's parent is its window's span.
type span struct {
	name       string
	start, end time.Duration // since the run's epoch
	id, parent uint64
	req        uint64
}

// spanLog is one goroutine's spans, kept in memory until the run ends.
type spanLog struct {
	epoch time.Time
	base  uint64 // high bits that keep ids unique across logs
	next  uint64
	spans []span
}

func (l *spanLog) newID() uint64 {
	l.next++
	return l.base | l.next
}

func (l *spanLog) add(id uint64, name string, start, end time.Time, parent, req uint64) {
	l.spans = append(l.spans, span{name: name, start: start.Sub(l.epoch), end: end.Sub(l.epoch), id: id, parent: parent, req: req})
}

// rungStat is one pass's timing, summed over its connections.
type rungStat struct {
	ops, gets, sets int
	busy            time.Duration // summed window durations
	getBusy         time.Duration // summed durations of calls that read
	setBusy         time.Duration // summed durations of calls that write
	failed          int
	wrong           error
}

func (s *rungStat) merge(o rungStat) {
	s.ops += o.ops
	s.gets += o.gets
	s.sets += o.sets
	s.busy += o.busy
	s.getBusy += o.getBusy
	s.setBusy += o.setBusy
	s.failed += o.failed
	if s.wrong == nil {
		s.wrong = o.wrong
	}
}

func (s rungStat) usPerOp() float64 { return usPer(s.busy, s.ops) }

func usPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n)
}

// counters is a snapshot of what the layers export.
type counters struct {
	rt       []metrics.Sample
	snap     core.StatsSnapshot
	perf     lsm.Perf // summed over engines
	bcHits   int64
	bcMisses int64
	info     map[string]int64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// rtDelta returns after − before for runtime metric i.
func rtDelta(before, after []metrics.Sample, i int) float64 {
	return rtValue(after[i]) - rtValue(before[i])
}

func allocs(before, after []metrics.Sample) float64 {
	return rtDelta(before, after, 0) + rtDelta(before, after, 1)
}

// ladder is a traced run's state.
type ladder struct {
	cfg   config
	book  *load.Book
	store *core.Store
	dbs   []*lsm.DB
	part  keyspace.Hash
	conns []*load.Client
	ctl   *load.Client // INFO connection
	epoch time.Time
	logs  []*spanLog

	attempted, failed int
	firstWrong        error
}

// account folds a pass into the run's counts.
func (l *ladder) account(st rungStat) {
	l.attempted += st.ops
	l.failed += st.failed
	if l.firstWrong == nil {
		l.firstWrong = st.wrong
	}
}

// writeSpans writes every recorded span, one per line, to the work
// directory.
func (l *ladder) writeSpans() error {
	name := filepath.Join(l.cfg.work, "spans-"+l.cfg.w.Name+".tsv")
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tid\tparent\treq")
	for _, sl := range l.logs {
		for _, s := range sl.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.id, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (l *ladder) snapshot() (counters, error) {
	c := counters{rt: readRuntime(), snap: l.store.StatsSnapshot()}
	for _, db := range l.dbs {
		p := db.Perf()
		c.perf.Writes += p.Writes
		c.perf.WALTime += p.WALTime
		c.perf.WALLockTime += p.WALLockTime
		c.perf.MemTime += p.MemTime
		c.perf.MemLockTime += p.MemLockTime
		c.perf.StallTime += p.StallTime
		c.perf.SlowdownTime += p.SlowdownTime
		c.perf.UserBytes += p.UserBytes
		c.perf.FlushBytes += p.FlushBytes
		c.perf.CompactRead += p.CompactRead
		c.perf.CompactWrite += p.CompactWrite
		c.perf.Compactions += p.Compactions
		c.perf.Flushes += p.Flushes
		c.perf.GetCount += p.GetCount
		c.perf.BloomSkips += p.BloomSkips
		c.perf.TableProbes += p.TableProbes
		c.perf.WriteGroupIOs += p.WriteGroupIOs
		h, m := db.BlockCacheStats()
		c.bcHits += h
		c.bcMisses += m
	}
	info, err := l.ctl.Info()
	c.info = info
	return c, err
}

// newLog returns a span log for one goroutine of one pass.
func (l *ladder) newLog() *spanLog {
	sl := &spanLog{epoch: l.epoch, base: uint64(len(l.logs)+1) << 40}
	l.logs = append(l.logs, sl)
	return sl
}

// respPass drives phase, a pass of n ops, over the loopback RESP server.
// With traced set it records a span for every other pipeline window, so
// the pass also gives the tracing overhead: the mean traced window's time
// over the mean untraced one's, in percent above 100.
func (l *ladder) respPass(phase, n int, traced bool) (rungStat, float64) {
	l.book.Phase(phase, n)
	stats := make([]rungStat, len(l.conns))
	busy := make([][2]time.Duration, len(l.conns)) // untraced, traced
	wins := make([][2]int, len(l.conns))
	logs := make([]*spanLog, len(l.conns))
	for c := range logs {
		logs[c] = l.newLog()
	}
	var wg sync.WaitGroup
	for c := range l.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var t load.Tally
			st := &stats[c]
			sl := logs[c]
			win := 0
			l.book.Pass(l.conns[c], phase, c, l.cfg.w.Depth, &t, func(s, e time.Time) {
				d := e.Sub(s)
				st.busy += d
				odd := win % 2
				if traced && odd == 1 {
					sl.add(sl.newID(), "resp.window", s, e, 0, uint64(c)<<32|uint64(win))
				}
				busy[c][odd] += d
				wins[c][odd]++
				win++
			})
			st.ops, st.gets, st.sets = t.Sent, len(t.GetNs), len(t.SetNs)
			st.failed, st.wrong = t.Failed, t.Wrong
			if t.ConnErr != nil && st.wrong == nil {
				st.wrong = fmt.Errorf("connection lost: %w", t.ConnErr)
			}
		}(c)
	}
	wg.Wait()
	var all rungStat
	var mean [2]float64
	for c, s := range stats {
		all.merge(s)
		for i := range mean {
			mean[i] += float64(busy[c][i]) / float64(max(1, wins[c][i])) / float64(len(stats))
		}
	}
	return all, 100 * (mean[1]/mean[0] - 1)
}

// callFn makes one call into a rung's layer for a run of commands of one
// type; it returns the values a read found, in order (nil = absent).
type callFn func(ctx context.Context, keys, vals [][]byte, get bool) ([][]byte, error)

// callPass drives the window through call on every connection, split the
// way the server splits a pipeline window: maximal runs of one command
// type, a run of two or more being one batched call.
func (l *ladder) callPass(phase int, prefix string, call callFn) rungStat {
	stats := make([]rungStat, len(l.conns))
	streams := l.book.Phase(phase, l.cfg.w.TraceOps)
	var wg sync.WaitGroup
	for c := range l.conns {
		sl := l.newLog()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = l.callConn(phase, c, streams[c], prefix, call, sl)
		}(c)
	}
	wg.Wait()
	var all rungStat
	for _, s := range stats {
		all.merge(s)
	}
	return all
}

func (l *ladder) callConn(phase, conn int, ops []load.Op, prefix string, call callFn, sl *spanLog) rungStat {
	var st rungStat
	ctx := context.Background()
	size := l.cfg.w.ValueSize
	depth := l.cfg.w.Depth
	scratch := make([]byte, 0, size+8)
	keys := make([][]byte, 0, depth)
	vals := make([][]byte, 0, depth)
	for lo, win := 0, uint64(0); lo < len(ops); lo, win = lo+depth, win+1 {
		hi := min(lo+depth, len(ops))
		// A fresh buffer per window: a batch keeps references to its keys
		// and values.
		buf := make([]byte, 0, (hi-lo)*(load.KeySize+size+8))
		req := uint64(conn)<<32 | win
		winID := sl.newID()
		wStart := time.Now()
		for i := lo; i < hi; {
			get := ops[i].IsGet()
			j := i + 1
			for j < hi && ops[j].IsGet() == get {
				j++
			}
			keys, vals = keys[:0], vals[:0]
			for k := i; k < j; k++ {
				op := ops[k]
				n := len(buf)
				buf = load.AppendKey(buf, op.Key())
				keys = append(keys, buf[n:])
				if !get {
					n = len(buf)
					buf = load.AppendValue(buf, op.Key(), load.Version(phase, conn, k, op.Key()), size)
					vals = append(vals, buf[n:])
				}
			}
			cStart := time.Now()
			found, err := call(ctx, keys, vals, get)
			cEnd := time.Now()
			name := prefix + ".write"
			if get {
				name = prefix + ".read"
				st.getBusy += cEnd.Sub(cStart)
				st.gets += j - i
			} else {
				st.setBusy += cEnd.Sub(cStart)
				st.sets += j - i
			}
			sl.add(sl.newID(), name, cStart, cEnd, winID, req)
			switch {
			case err != nil:
				st.failed += j - i
			case get:
				for k, v := range found {
					if err := l.book.Check(ops[i+k].Key(), v, scratch); err != nil && st.wrong == nil {
						st.wrong = fmt.Errorf("%s read: %w", prefix, err)
					}
				}
			}
			i = j
		}
		wEnd := time.Now()
		st.busy += wEnd.Sub(wStart)
		st.ops += hi - lo
		sl.add(winID, prefix+".window", wStart, wEnd, 0, req)
	}
	return st
}

// coreCall calls core.Store as the server does: a run of two or more
// becomes one WriteCtx or MultiGetCtx, a single command PutCtx or GetCtx.
func (l *ladder) coreCall(ctx context.Context, keys, vals [][]byte, get bool) ([][]byte, error) {
	switch {
	case get && len(keys) == 1:
		v, err := l.store.GetCtx(ctx, keys[0])
		if errors.Is(err, kv.ErrNotFound) {
			return [][]byte{nil}, nil
		}
		return [][]byte{v}, err
	case get:
		return l.store.MultiGetCtx(ctx, keys)
	case len(keys) == 1:
		return nil, l.store.PutCtx(ctx, keys[0], vals[0])
	default:
		var b kv.Batch
		for i := range keys {
			b.Put(keys[i], vals[i])
		}
		return nil, l.store.WriteCtx(ctx, &b)
	}
}

// engineCall calls the LSM engines directly, one call per worker the
// keys route to, in worker order.
func (l *ladder) engineCall(_ context.Context, keys, vals [][]byte, get bool) ([][]byte, error) {
	if len(keys) == 1 {
		db := l.dbs[l.part.Pick(keys[0])]
		if !get {
			return nil, db.Put(keys[0], vals[0])
		}
		v, err := db.Get(keys[0])
		if errors.Is(err, kv.ErrNotFound) {
			return [][]byte{nil}, nil
		}
		return [][]byte{v}, err
	}
	shard := make([][]int, len(l.dbs))
	for i, k := range keys {
		w := l.part.Pick(k)
		shard[w] = append(shard[w], i)
	}
	var out [][]byte
	if get {
		out = make([][]byte, len(keys))
	}
	for w, idx := range shard {
		if len(idx) == 0 {
			continue
		}
		if !get {
			var b kv.Batch
			for _, i := range idx {
				b.Put(keys[i], vals[i])
			}
			if err := l.dbs[w].Write(&b); err != nil {
				return nil, err
			}
			continue
		}
		ks := make([][]byte, len(idx))
		for n, i := range idx {
			ks[n] = keys[i]
		}
		vs, err := l.dbs[w].MultiGet(ks)
		if err != nil {
			return nil, err
		}
		for n, i := range idx {
			out[i] = vs[n]
		}
	}
	return out, nil
}

// heapPeak samples the live heap every 10ms until stop is closed.
func heapPeak(stop <-chan struct{}, peak *float64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		*peak = max(*peak, float64(s[0].Value.Uint64()))
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// allocProbe counts the engine's allocations per write and per read on
// up to n ops of conn 0's stream, replayed on this goroutine alone after
// the store has drained.
func (l *ladder) allocProbe(phase, n int) (perWrite, perGet float64, err error) {
	ops := l.book.Phase(phase, l.cfg.w.TraceOps)[0]
	ops = ops[:min(n, len(ops))]
	for _, get := range []bool{false, true} {
		var keys, vals [][]byte
		for k, op := range ops {
			if op.IsGet() != get {
				continue
			}
			keys = append(keys, load.AppendKey(nil, op.Key()))
			if !get {
				vals = append(vals, load.AppendValue(nil, op.Key(), load.Version(phase, 0, k, op.Key()), l.cfg.w.ValueSize))
			}
		}
		if len(keys) == 0 {
			continue
		}
		before := readRuntime()
		for lo := 0; lo < len(keys); lo += l.cfg.w.Depth {
			hi := min(lo+l.cfg.w.Depth, len(keys))
			var vs [][]byte
			if !get {
				vs = vals[lo:hi]
			}
			if _, err := l.engineCall(context.Background(), keys[lo:hi], vs, get); err != nil {
				return 0, 0, err
			}
		}
		a := allocs(before, readRuntime()) / float64(len(keys))
		if get {
			perGet = a
		} else {
			perWrite = a
		}
	}
	return perWrite, perGet, nil
}

// runTraced measures the per-layer metrics.
func runTraced(cfg config) (result, error) {
	dir := filepath.Join(cfg.work, "trace")
	if err := os.RemoveAll(dir); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	store, err := sut.Open(dir)
	if err != nil {
		return result{}, err
	}
	srv, addr, err := sut.Serve(store)
	if err != nil {
		store.Close()
		return result{}, err
	}
	l := &ladder{cfg: cfg, book: load.NewBook(cfg.w, cfg.seed), store: store, part: keyspace.NewHash(sut.Workers), epoch: time.Now()}
	res, err := l.run(addr)
	for _, c := range append(l.conns, l.ctl) {
		if c != nil {
			c.Close()
		}
	}
	if serr := sut.Shutdown(srv); serr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	return res, err
}

func (l *ladder) run(addr string) (result, error) {
	var err error
	if l.dbs, err = sut.Engines(l.store); err != nil {
		return result{}, err
	}
	l.conns = make([]*load.Client, load.Conns)
	for c := range l.conns {
		if l.conns[c], err = load.Dial(addr); err != nil {
			return result{}, err
		}
	}
	if l.ctl, err = load.Dial(addr); err != nil {
		return result{}, err
	}
	drain := func() error { return sut.Drain(l.store) }

	// Set-up as in the end-to-end run: every key once, settle, warm up.
	if err := sut.Load(l.store, l.cfg.w); err != nil {
		return result{}, err
	}
	if err := drain(); err != nil {
		return result{}, err
	}
	warm, _ := l.respPass(load.PhaseWarmup, l.cfg.w.WarmOps, false)
	l.account(warm)
	if err := drain(); err != nil {
		return result{}, err
	}
	phase, n := load.FirstWindow, l.cfg.w.TraceOps

	before, err := l.snapshot()
	if err != nil {
		return result{}, err
	}
	var peak float64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() { heapPeak(stop, &peak); close(sampled) }()
	resp, overhead := l.respPass(phase, n, true)
	close(stop)
	<-sampled
	rtResp := readRuntime()
	if err := drain(); err != nil {
		return result{}, err
	}
	after, err := l.snapshot()
	if err != nil {
		return result{}, err
	}
	l.account(resp)

	rtBefore := readRuntime()
	coreSt := l.callPass(phase, "core", l.coreCall)
	rtCore := readRuntime()
	if err := drain(); err != nil {
		return result{}, err
	}
	l.account(coreSt)
	rtBeforeEngine := readRuntime()
	engSt := l.callPass(phase, "engine", l.engineCall)
	rtEngine := readRuntime()
	if err := drain(); err != nil {
		return result{}, err
	}
	l.account(engSt)
	perWrite, perGet, err := l.allocProbe(phase, 8192)
	if err != nil {
		return result{}, err
	}

	// INFO counts each call to it; the after-snapshot's INFO is the one
	// command in the delta that the traced pass did not send.
	dCmds := after.info["total_commands_processed"] - before.info["total_commands_processed"] - 1
	dWins := after.info["pipelines_processed"] - before.info["pipelines_processed"] - 1
	if dCmds != int64(resp.ops) {
		l.account(rungStat{wrong: fmt.Errorf("INFO total_commands_processed grew by %d over a pass of %d commands", dCmds, resp.ops)})
	}

	m := newMetricSet(perLayer)
	ops := float64(resp.ops)
	respAllocs := allocs(before.rt, rtResp) / ops
	coreAllocs := allocs(rtBefore, rtCore) / ops
	engAllocs := allocs(rtBeforeEngine, rtEngine) / ops
	m.set("rung.resp_us_per_op", resp.usPerOp())
	m.set("rung.core_us_per_op", coreSt.usPerOp())
	m.set("rung.engine_us_per_op", engSt.usPerOp())
	m.set("server.self_us_per_op", resp.usPerOp()-coreSt.usPerOp())
	m.set("server.allocs_per_op", respAllocs-coreAllocs)
	m.ratio("server.cmds_per_window", float64(dCmds), float64(dWins))
	m.ratio("server.coalesced_share",
		float64(after.info["coalesced_set_ops"]+after.info["coalesced_get_ops"]-before.info["coalesced_set_ops"]-before.info["coalesced_get_ops"]),
		float64(dCmds))

	sa, sb := after.snap, before.snap
	hits := float64(sa.CacheHits + sa.CacheNegHits - sb.CacheHits - sb.CacheNegHits)
	misses := float64(sa.CacheMisses - sb.CacheMisses)
	m.ratio("hotcache.hit_ratio", hits, hits+misses)
	m.ratio("hotcache.fill_ratio", float64(sa.CacheFills-sb.CacheFills), misses)
	m.ratio("hotcache.evictions_per_kop", 1000*float64(sa.CacheEvictions-sb.CacheEvictions), ops)
	m.ratio("hotcache.invalidations_per_set", float64(sa.CacheInvalidations-sb.CacheInvalidations), float64(resp.sets))

	aa, ab := sa.Aggregate, sb.Aggregate
	m.set("core.self_us_per_op", coreSt.usPerOp()-engSt.usPerOp())
	m.set("core.allocs_per_op", coreAllocs-engAllocs)
	m.ratio("core.queue_wait_us_per_op", float64(aa.QueueWaitUs-ab.QueueWaitUs), ops)
	m.ratio("core.ops_per_batch", float64(aa.BatchedOps-ab.BatchedOps), float64(aa.Batches-ab.Batches))
	m.set("core.refused_ops", float64(aa.Rejected+aa.Expired+aa.Shed-ab.Rejected-ab.Expired-ab.Shed))

	pa, pb := after.perf, before.perf
	writes := float64(pa.Writes - pb.Writes)
	gets := float64(pa.GetCount - pb.GetCount)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	m.set("lsm.engine_us_per_write", usPer(engSt.setBusy, engSt.sets))
	m.set("lsm.allocs_per_write", perWrite)
	m.ratio("lsm.wal_us_per_write", us(pa.WALTime-pb.WALTime), writes)
	m.ratio("lsm.wal_lock_us_per_write", us(pa.WALLockTime-pb.WALLockTime), writes)
	m.ratio("lsm.mem_us_per_write", us(pa.MemTime-pb.MemTime), writes)
	m.ratio("lsm.mem_lock_us_per_write", us(pa.MemLockTime-pb.MemLockTime), writes)
	m.ratio("lsm.writes_per_wal_io", writes, float64(pa.WriteGroupIOs-pb.WriteGroupIOs))
	m.set("lsm.stall_ms", us(pa.StallTime-pb.StallTime)/1e3)
	m.set("lsm.slowdown_ms", us(pa.SlowdownTime-pb.SlowdownTime)/1e3)
	m.set("lsm.flushes", float64(pa.Flushes-pb.Flushes))
	m.set("lsm.compactions", float64(pa.Compactions-pb.Compactions))
	m.ratio("lsm.write_amp", float64(pa.FlushBytes+pa.CompactWrite-pb.FlushBytes-pb.CompactWrite), float64(pa.UserBytes-pb.UserBytes))
	m.set("lsm.compact_read_mib", float64(pa.CompactRead-pb.CompactRead)/(1<<20))
	m.set("lsm.engine_us_per_get", usPer(engSt.getBusy, engSt.gets))
	m.set("lsm.allocs_per_get", perGet)
	probes, skips := float64(pa.TableProbes-pb.TableProbes), float64(pa.BloomSkips-pb.BloomSkips)
	m.ratio("lsm.table_probes_per_get", probes, gets)
	m.ratio("lsm.bloom_skip_ratio", skips, skips+probes)
	bh, bm := float64(after.bcHits-before.bcHits), float64(after.bcMisses-before.bcMisses)
	m.ratio("lsm.block_cache_hit_ratio", bh, bh+bm)
	m.ratio("lsm.block_misses_per_get", bm, gets)

	m.ratio("go.gc_cpu_share", rtDelta(before.rt, rtResp, 3), rtDelta(before.rt, rtResp, 4))
	m.set("go.heap_peak_mib", peak/(1<<20))
	m.set("go.alloc_bytes_per_op", rtDelta(before.rt, rtResp, 2)/ops)
	m.set("trace.overhead_pct", overhead)

	ms, err := m.metrics()
	if err != nil {
		return result{}, err
	}
	if err := l.writeSpans(); err != nil {
		return result{}, err
	}
	fmt.Printf("workload %s seed %d: traced ladder over one window of %d ops; server %s\n",
		l.cfg.w.Name, l.cfg.seed, n, sut.Flags)
	printHuman(ms)
	if l.firstWrong != nil {
		fmt.Printf("verification failed: %v\n", l.firstWrong)
	}
	return result{Correct: l.firstWrong == nil, Attempted: l.attempted, Failed: l.failed, Metrics: ms}, nil
}
