// Package sut builds the system under test the same way for the
// benchmark's server process and for its in-process traced run:
// p2kvs-server's defaults (8 workers, rocksdb engine, OBM on, admission
// reject, WAL policy never, i.e. no fsync) plus the hot cache at its
// default 32 MiB budget, on the host filesystem.
package sut

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"p2kvs"
	"p2kvs/internal/core"
	"p2kvs/internal/keyspace"
	"p2kvs/internal/kv"
	"p2kvs/internal/lsm"
	"p2kvs/internal/server"
	"p2kvs/perfbench/internal/load"
)

// Flags records the server settings in p2kvs-server's flag syntax.
const Flags = "-workers 8 -engine rocksdb -admission reject -wal_sync never -hot_cache -1 -max_pipeline 128"

// Workers is the store's worker count.
const Workers = 8

// Open opens the store under test in dir.
func Open(dir string) (*core.Store, error) {
	return p2kvs.Open(p2kvs.Options{
		Dir:           dir,
		Workers:       Workers,
		Engine:        p2kvs.EngineRocksDB,
		Admission:     p2kvs.AdmitReject,
		WALSync:       p2kvs.SyncNever,
		DrainTimeout:  30 * time.Second,
		HotCacheBytes: -1,
	})
}

// Serve starts a RESP server for store on a loopback port chosen by the
// kernel and returns it with its address. Shutdown ends it and closes the
// store.
func Serve(store *core.Store) (*server.Server, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := server.New(server.Config{
		Store:       store,
		MaxConns:    1024,
		MaxPipeline: 128,
	})
	go srv.Serve(lis)
	return srv, lis.Addr().String(), nil
}

// Shutdown drains srv's connections and closes its store.
func Shutdown(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// Engines returns the store's per-worker LSM engines.
func Engines(store *core.Store) ([]*lsm.DB, error) {
	out := make([]*lsm.DB, store.Workers())
	for i := range out {
		db, ok := store.Engine(i).(*lsm.DB)
		if !ok {
			return nil, fmt.Errorf("worker %d engine is %T, not *lsm.DB", i, store.Engine(i))
		}
		out[i] = db
	}
	return out, nil
}

// Drain pays the flush and compaction debt written so far: it flushes
// every memtable, then runs each engine's compactions until none is due.
func Drain(store *core.Store) error {
	if err := store.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	dbs, err := Engines(store)
	if err != nil {
		return err
	}
	for i, db := range dbs {
		if err := db.CompactAll(); err != nil {
			return fmt.Errorf("compact worker %d: %w", i, err)
		}
	}
	return nil
}

// loadBatch is how many keys one set-up write batch carries.
const loadBatch = 256

// Load writes every key of w once, straight into the store, with the
// value of version k (phase load.PhasePreload). Batches are grouped per
// worker, so each commits on one instance without a cross-worker
// transaction. It is the set-up write the measured passes overwrite and
// read.
func Load(store *core.Store, w load.Workload) error {
	part := keyspace.NewHash(Workers)
	errs := make([]error, load.Conns)
	var wg sync.WaitGroup
	for c := 0; c < load.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lo, hi := c*w.Keys/load.Conns, (c+1)*w.Keys/load.Conns
			bufs := make([][]byte, Workers)
			batches := make([]kv.Batch, Workers)
			flush := func(i int) error {
				err := store.Write(&batches[i])
				batches[i].Reset()
				bufs[i] = bufs[i][:0]
				return err
			}
			var key []byte
			for k := lo; k < hi && errs[c] == nil; k++ {
				key = load.AppendKey(key[:0], uint32(k))
				i := part.Pick(key)
				if bufs[i] == nil {
					// Sized so appends never move the bytes a batch refers to.
					bufs[i] = make([]byte, 0, loadBatch*(load.KeySize+w.ValueSize+8))
				}
				n := len(bufs[i])
				bufs[i] = append(bufs[i], key...)
				m := len(bufs[i])
				bufs[i] = load.AppendValue(bufs[i], uint32(k), load.Version(load.PhasePreload, 0, k, uint32(k)), w.ValueSize)
				batches[i].Put(bufs[i][n:m], bufs[i][m:])
				if batches[i].Len() == loadBatch {
					errs[c] = flush(i)
				}
			}
			for i := range batches {
				if errs[c] == nil && batches[i].Len() > 0 {
					errs[c] = flush(i)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
