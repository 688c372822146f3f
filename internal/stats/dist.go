package stats

import (
	"hash/fnv"
	"math"
	"time"
)

// Uniform draws uniformly from [0, N).
type Uniform struct{ N uint64 }

// Next draws the next value using src.
func (u Uniform) Next(src *Source) uint64 { return src.Uint64N(u.N) }

// ZipfTheta is the skew constant YCSB uses for its zipfian workloads.
const ZipfTheta = 0.99

// Zipfian draws from a zipfian distribution over [0, items) using the
// rejection-free method of Gray et al. ("Quickly generating
// billion-record synthetic databases", SIGMOD'94), the same algorithm as
// YCSB's ZipfianGenerator. Item 0 is the most popular.
type Zipfian struct {
	items      uint64
	theta      float64
	alpha      float64
	zetan      float64
	eta        float64
	zeta2theta float64
}

// NewZipfian returns a zipfian generator over [0, items) with skew theta
// (YCSB default 0.99). It panics if items is zero.
func NewZipfian(items uint64, theta float64) *Zipfian {
	if items == 0 {
		panic("stats: zipfian over zero items")
	}
	z := &Zipfian{items: items, theta: theta}
	z.zetan = zeta(items, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// Next draws the next rank using src.
func (z *Zipfian) Next(src *Source) uint64 {
	u := src.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

func zeta(n uint64, theta float64) float64 {
	// Direct summation; domains used in workloads are at most a few
	// million items and the constant is computed once per generator.
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// ScrambledZipfian spreads zipfian popularity over the whole key space by
// hashing the zipfian rank, exactly as YCSB's ScrambledZipfianGenerator.
// Popular items are scattered rather than clustered at low ids.
type ScrambledZipfian struct {
	z     *Zipfian
	items uint64
}

// NewScrambledZipfian returns a scrambled zipfian generator over [0, items).
func NewScrambledZipfian(items uint64, theta float64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(items, theta), items: items}
}

// Next draws the next item using src.
func (s *ScrambledZipfian) Next(src *Source) uint64 {
	return FNVHash64(s.z.Next(src)) % s.items
}

// Latest favours recently inserted items: rank 0 is the newest item. The
// caller advances the horizon as inserts happen (YCSB's "latest"
// distribution for workload D).
type Latest struct {
	z       *Zipfian
	horizon uint64
}

// NewLatest returns a latest-skewed generator whose initial horizon is
// items (the current number of inserted records).
func NewLatest(items uint64, theta float64) *Latest {
	return &Latest{z: NewZipfian(items, theta), horizon: items}
}

// Advance tells the generator that n more records exist.
func (l *Latest) Advance(n uint64) { l.horizon += n }

// Next draws the next item using src.
func (l *Latest) Next(src *Source) uint64 {
	r := l.z.Next(src)
	if r >= l.horizon {
		r = l.horizon - 1
	}
	return l.horizon - 1 - r
}

// FNVHash64 is the 64-bit FNV-1a hash of v's eight little-endian bytes; it
// is the permutation YCSB uses to scramble zipfian ranks.
func FNVHash64(v uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// Exponential draws an exponentially distributed duration with the given
// mean; it is the inter-arrival law of a Poisson process.
func Exponential(src *Source, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(src.ExpFloat64() * float64(mean))
}

// LogNormal models a latency distribution with the given median and sigma
// (shape). WAN RTTs are well described by lognormal tails.
type LogNormal struct {
	Mu    float64 // log of the median
	Sigma float64
}

// NewLogNormal returns a lognormal law with the given median and shape.
func NewLogNormal(median time.Duration, sigma float64) LogNormal {
	return LogNormal{Mu: math.Log(float64(median)), Sigma: sigma}
}

// Sample draws one duration.
func (l LogNormal) Sample(src *Source) time.Duration {
	return time.Duration(math.Exp(l.Mu + l.Sigma*src.NormFloat64()))
}

// Mean reports the analytic mean of the law.
func (l LogNormal) Mean() time.Duration {
	return time.Duration(math.Exp(l.Mu + l.Sigma*l.Sigma/2))
}
