// Package load holds the benchmark's workloads: the deterministic op
// streams a seed expands to, the self-validating values every SET
// carries, and the verifier every GET reply goes through.
package load

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Workload is one closed-loop traffic mix. Every connection sends Depth
// commands, waits for all their replies, then sends the next Depth.
type Workload struct {
	Name      string
	Why       string
	Keys      int  // keyspace size; set-up writes every key once
	ValueSize int  // bytes per value
	Depth     int  // pipelined commands per connection window
	GetPct    int  // share of GETs in percent; the rest are SETs
	Zipf      bool // zipfian θ=0.99 key choice instead of uniform
	// WindowOps is the fixed op count of one measured window, over all
	// connections; WarmOps that of the warm-up pass set-up ends with, and
	// TraceOps that of the traced run's window.
	WindowOps int
	WarmOps   int
	TraceOps  int
	// Rate is the workload's throughput on the reference host (2 vCPU),
	// in ops/s. It turns a run's --seconds into a fixed number of
	// windows, so every run does the same work whatever the host's speed.
	Rate int
}

// Conns is the number of client connections the generator opens.
const Conns = 2

// Workloads lists the benchmark's traffic mixes.
var Workloads = []Workload{
	{
		Name:      "write-uniform-p32",
		Why:       "100% SET, uniform over 500k keys, 128 B values, depth 32: OBM write batches, WAL, memtable, flushes and L0 compactions; no read path",
		Keys:      500_000,
		ValueSize: 128,
		Depth:     32,
		GetPct:    0,
		WindowOps: 120_000,
		WarmOps:   40_000,
		TraceOps:  600_000,
		Rate:      56_000,
	},
	{
		Name:      "ycsb-b-zipf-d1",
		Why:       "95% GET / 5% SET, zipfian over 200k keys, 128 B values, depth 1: per-command cost and hot-cache hits, with invalidations from the writes",
		Keys:      200_000,
		ValueSize: 128,
		Depth:     1,
		GetPct:    95,
		Zipf:      true,
		WindowOps: 40_000,
		WarmOps:   20_000,
		TraceOps:  60_000,
		Rate:      27_000,
	},
	{
		Name:      "read-uniform-big-p32",
		Why:       "100% GET, uniform over 500k keys with 512 B values (2.7x the block and hot caches), depth 32: MultiGet with bloom, index, block decode and cache misses",
		Keys:      500_000,
		ValueSize: 512,
		Depth:     32,
		GetPct:    100,
		WindowOps: 120_000,
		WarmOps:   60_000,
		TraceOps:  150_000,
		Rate:      59_000,
	},
}

// ByName returns the workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// LiveBytes is the key plus value bytes of the fully loaded keyspace.
func (w Workload) LiveBytes() int64 {
	return int64(w.Keys) * int64(KeySize+w.ValueSize)
}

// Op is one command of a stream: the key index in the low 31 bits and
// the GET flag in the top bit.
type Op uint32

const getFlag Op = 1 << 31

// Key returns the op's key index.
func (o Op) Key() uint32 { return uint32(o &^ getFlag) }

// IsGet reports whether the op is a GET (otherwise a SET).
func (o Op) IsGet() bool { return o&getFlag != 0 }

// Phase numbers: the set-up load of every key (see sut.Load), the
// warm-up pass, and then the measured windows from FirstWindow on.
const (
	PhasePreload = 0
	PhaseWarmup  = 1
	FirstWindow  = 2
)

// Streams returns the per-connection op streams of a pass of n ops for
// seed and phase (not PhasePreload, which has none). The same arguments
// always give the same streams.
func (w Workload) Streams(seed int64, phase, n int) [][]Op {
	out := make([][]Op, Conns)
	var z *zipf
	if w.Zipf {
		z = newZipf(uint64(w.Keys))
	}
	for c := range out {
		r := rng{s: mix(uint64(seed)) ^ mix((uint64(phase)<<8|uint64(c))+1)}
		ops := make([]Op, n/Conns)
		for i := range ops {
			var k uint32
			if z != nil {
				k = uint32(z.next(&r))
			} else {
				k = uint32(r.next() % uint64(w.Keys))
			}
			op := Op(k)
			if int(r.next()%100) < w.GetPct {
				op |= getFlag
			}
			ops[i] = op
		}
		out[c] = ops
	}
	return out
}

// rng is splitmix64: small, fast and fully specified here, so op streams
// never change under a toolchain or library update.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix(r.s)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// zipf is YCSB's scrambled zipfian generator with θ = 0.99: rank r is
// drawn with probability ∝ 1/r^θ and hashed onto the keyspace, so the
// hot keys spread over every worker.
type zipf struct {
	n                   uint64
	theta, alpha, zetan float64
	eta, half           float64
}

const zipfTheta = 0.99

func newZipf(n uint64) *zipf {
	z := &zipf{n: n, theta: zipfTheta, alpha: 1 / (1 - zipfTheta)}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	zeta2 := 1 + 1/math.Pow(2, z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, z.theta)
	return z
}

func (z *zipf) next(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return mix(rank+1) % z.n
}

// KeySize is the length of every key.
const KeySize = 16

// AppendKey appends key index k's 16-byte key to dst.
func AppendKey(dst []byte, k uint32) []byte {
	var d [12]byte
	v := k
	for i := len(d) - 1; i >= 0; i-- {
		d[i] = byte('0' + v%10)
		v /= 10
	}
	dst = append(dst, "key:"...)
	return append(dst, d[:]...)
}

// Version names the op that wrote a value: phase, connection and the
// op's index in that connection's stream. The set-up write of key k has
// version k (phase 0, connection 0, index k).
func Version(phase, conn, idx int, k uint32) uint64 {
	if phase == PhasePreload {
		return uint64(k)
	}
	return uint64(phase)<<40 | uint64(conn)<<32 | uint64(idx)
}

func splitVersion(v uint64) (phase, conn, idx int) {
	return int(v >> 40), int(v >> 32 & 0xff), int(v & 0xffffffff)
}

// AppendValue appends the value the op with version ver writes to key k:
// the version, the key index and filler derived from both, size bytes
// in all. A value thus names the op that wrote it and can be checked
// byte for byte.
func AppendValue(dst []byte, k uint32, ver uint64, size int) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, ver)
	dst = binary.LittleEndian.AppendUint32(dst, k)
	r := rng{s: ver ^ uint64(k)<<32}
	for len(dst)-start < size {
		dst = binary.LittleEndian.AppendUint64(dst, r.next())
	}
	return dst[:start+size]
}
