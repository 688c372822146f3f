package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"time"
)

// The load generator: a seeded key/op stream, the benchmark's own RESP
// request encoder and reply parser (deliberately not internal/wire, so a
// codec bug cannot hide from the tool that measures it), and the driver
// of its one closed-loop connection. Generation, encoding and parsing
// allocate nothing per request (pinned by TestRequestPathAllocatesNothing),
// so allocation counts taken around a run are the program's.

// keyLen is the fixed key width: "user" + 12 digits, YCSB style.
const keyLen = 16

// keyTable holds every key of a run pre-rendered in one flat slice.
type keyTable []byte

func newKeyTable(n int) keyTable {
	t := make([]byte, 0, n*keyLen)
	for i := 0; i < n; i++ {
		t = append(t, "user"...)
		s := strconv.Itoa(i)
		for pad := keyLen - 4 - len(s); pad > 0; pad-- {
			t = append(t, '0')
		}
		t = append(t, s...)
	}
	return t
}

func (t keyTable) key(i int) []byte { return t[i*keyLen : (i+1)*keyLen] }

// rng is splitmix64: tiny, seedable, allocation-free.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfian draws ranks by the YCSB/Gray et al. closed form; scrambling
// by a hash spreads the popular ranks over the key space.
type zipfian struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipfian(n int, theta float64) *zipfian {
	zeta := func(k int) float64 {
		var s float64
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipfian) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

func fnv64(v uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

// opStream is one connection's deterministic request stream: the same
// (workload, seed, connection) always yields the same keys and kinds.
type opStream struct {
	r    rng
	w    *workload
	zipf *zipfian
	seq  uint64 // SETs drawn so far; embedded in the stored values
}

func newOpStream(w *workload, zipf *zipfian, seed uint64, conn int) *opStream {
	return &opStream{r: rng{s: seed*0x9e3779b97f4a7c15 + uint64(conn)*0xd1342543de82ef95 + 1}, w: w, zipf: zipf}
}

func (s *opStream) next() (key int, set bool) {
	set = s.r.float() < s.w.setShare
	if s.zipf != nil {
		key = int(fnv64(s.zipf.rank(s.r.float())) % uint64(s.w.keys))
	} else {
		key = int(s.r.next() % uint64(s.w.keys))
	}
	return key, set
}

// encoder renders requests. Every stored value is "key|seq" padded
// with 'x' to the workload's value size, so any GET reply can be
// checked against the key that asked for it.
type encoder struct {
	keys      keyTable
	valueSize int
	getHead   []byte // up to and excluding the key
	setHead   []byte
	valHead   []byte // between key and value
}

func newEncoder(keys keyTable, valueSize int) *encoder {
	return &encoder{
		keys:      keys,
		valueSize: valueSize,
		getHead:   []byte(fmt.Sprintf("*2\r\n$3\r\nGET\r\n$%d\r\n", keyLen)),
		setHead:   []byte(fmt.Sprintf("*3\r\n$3\r\nSET\r\n$%d\r\n", keyLen)),
		valHead:   []byte(fmt.Sprintf("\r\n$%d\r\n", valueSize)),
	}
}

func (e *encoder) appendGet(out []byte, key int) []byte {
	out = append(out, e.getHead...)
	out = append(out, e.keys.key(key)...)
	return append(out, '\r', '\n')
}

func (e *encoder) appendSet(out []byte, key int, seq uint64) []byte {
	out = append(out, e.setHead...)
	out = append(out, e.keys.key(key)...)
	out = append(out, e.valHead...)
	out = e.appendValue(out, key, seq)
	return append(out, '\r', '\n')
}

func (e *encoder) appendValue(out []byte, key int, seq uint64) []byte {
	start := len(out)
	out = append(out, e.keys.key(key)...)
	out = append(out, '|')
	out = strconv.AppendUint(out, seq, 10)
	for len(out)-start < e.valueSize {
		out = append(out, 'x')
	}
	return out
}

type replyKind byte

const (
	replySimple replyKind = iota + 1 // +OK
	replyError                       // -ERR ...
	replyInt                         // :n
	replyBulk                        // $n payload
	replyNil                         // $-1
)

var errBadReply = errors.New("malformed RESP reply")

// parseReply decodes one RESP2 reply at the head of buf. n is the bytes
// consumed; n == 0 with a nil error means buf holds only part of a
// reply. payload aliases buf. Arrays are not part of the benchmark's
// traffic and are rejected.
func parseReply(buf []byte) (kind replyKind, payload []byte, n int, err error) {
	if len(buf) == 0 {
		return 0, nil, 0, nil
	}
	eol := bytes.IndexByte(buf, '\n')
	if eol < 0 {
		return 0, nil, 0, nil
	}
	if eol < 2 || buf[eol-1] != '\r' {
		return 0, nil, 0, errBadReply
	}
	line := buf[1 : eol-1]
	switch buf[0] {
	case '+':
		return replySimple, line, eol + 1, nil
	case '-':
		return replyError, line, eol + 1, nil
	case ':':
		return replyInt, line, eol + 1, nil
	case '$':
		if len(line) == 2 && line[0] == '-' && line[1] == '1' {
			return replyNil, nil, eol + 1, nil
		}
		size := 0
		if len(line) == 0 {
			return 0, nil, 0, errBadReply
		}
		for _, c := range line {
			if c < '0' || c > '9' || size > 1<<28 {
				return 0, nil, 0, errBadReply
			}
			size = size*10 + int(c-'0')
		}
		end := eol + 1 + size
		if len(buf) < end+2 {
			return 0, nil, 0, nil
		}
		if buf[end] != '\r' || buf[end+1] != '\n' {
			return 0, nil, 0, errBadReply
		}
		return replyBulk, buf[eol+1 : end], end + 2, nil
	}
	return 0, nil, 0, errBadReply
}

// getReplyOK is the payload verifier: a GET of a stored key must return
// a bulk value that starts with that key and a '|'. A swapped or
// misrouted reply fails here.
func getReplyOK(kind replyKind, payload, key []byte) bool {
	return kind == replyBulk && len(payload) > len(key) &&
		payload[len(key)] == '|' && bytes.Equal(payload[:len(key)], key)
}

// maxDepth bounds the requests one connection keeps in flight.
const maxDepth = 16

// slowReply is the latency past which a reply counts as failed.
const slowReply = time.Second

type pending struct {
	key int
	set bool
}

// client is one closed-loop connection: it writes a batch of requests,
// reads exactly that many replies, and only then issues the next batch.
type client struct {
	nc   net.Conn
	enc  *encoder
	ops  *opStream
	out  []byte
	in   []byte
	r, w int
	pend [maxDepth]pending

	attempted, failed uint64
	wireBytes         uint64 // request and reply bytes on the socket
}

func dial(addr string, enc *encoder, ops *opStream) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{
		nc:  nc,
		enc: enc,
		ops: ops,
		out: make([]byte, 0, maxDepth*(enc.valueSize+64)),
		in:  make([]byte, 64<<10),
	}, nil
}

func (c *client) close() { c.nc.Close() }

// readReply returns the next reply; the payload is valid until the next
// call.
func (c *client) readReply() (replyKind, []byte, error) {
	for {
		kind, payload, n, err := parseReply(c.in[c.r:c.w])
		if err != nil {
			return 0, nil, err
		}
		if n > 0 {
			c.r += n
			return kind, payload, nil
		}
		if c.r > 0 {
			c.w = copy(c.in, c.in[c.r:c.w])
			c.r = 0
		}
		if c.w == len(c.in) {
			c.in = append(c.in, make([]byte, len(c.in))...)
		}
		m, err := c.nc.Read(c.in[c.w:])
		if err != nil {
			return 0, nil, err
		}
		c.w += m
		c.wireBytes += uint64(m)
	}
}

// flush writes the encoded batch and verifies one reply per request,
// returning the flush-to-last-reply time. Reply-level failures are
// counted; only a broken connection or stream is an error.
func (c *client) flush(depth int) (time.Duration, error) {
	t0 := time.Now()
	if _, err := c.nc.Write(c.out); err != nil {
		return 0, err
	}
	c.wireBytes += uint64(len(c.out))
	bad := uint64(0)
	for i := 0; i < depth; i++ {
		kind, payload, err := c.readReply()
		if err != nil {
			return 0, err
		}
		p := c.pend[i]
		if p.set {
			if kind != replySimple {
				bad++
			}
		} else if !getReplyOK(kind, payload, c.enc.keys.key(p.key)) {
			bad++
		}
	}
	el := time.Since(t0)
	if el > slowReply {
		bad = uint64(depth)
	}
	c.attempted += uint64(depth)
	c.failed += bad
	c.out = c.out[:0]
	return el, nil
}

// batch issues depth requests from the op stream. firstSet reports the
// kind of the first request (the only one at depth 1).
func (c *client) batch(depth int) (el time.Duration, firstSet bool, err error) {
	for i := 0; i < depth; i++ {
		key, set := c.ops.next()
		c.pend[i] = pending{key, set}
		if set {
			c.ops.seq++
			c.out = c.enc.appendSet(c.out, key, c.ops.seq)
		} else {
			c.out = c.enc.appendGet(c.out, key)
		}
	}
	el, err = c.flush(depth)
	return el, c.pend[0].set, err
}

// setRange stores the keys from <= k < to with the given value sequence.
func (c *client) setRange(from, to int, seq uint64) error {
	for k := from; k < to; {
		n := 0
		for ; n < maxDepth && k < to; k, n = k+1, n+1 {
			c.pend[n] = pending{k, true}
			c.out = c.enc.appendSet(c.out, k, seq)
		}
		if _, err := c.flush(n); err != nil {
			return err
		}
	}
	return nil
}

// run issues n requests at the given depth, untimed (warm-up, replays).
func (c *client) run(n, depth int) error {
	for done := 0; done < n; done += depth {
		if _, _, err := c.batch(depth); err != nil {
			return err
		}
	}
	return nil
}

// readBack SETs count fresh keys (indices from base) and GETs each one
// back; a reply that is not the exact stored bytes is a failed
// operation.
func (c *client) readBack(base, count int, seq uint64) error {
	if err := c.setRange(base, base+count, seq); err != nil {
		return err
	}
	want := make([]byte, 0, c.enc.valueSize)
	for k := base; k < base+count; k++ {
		c.out = c.enc.appendGet(c.out, k)
		if _, err := c.nc.Write(c.out); err != nil {
			return err
		}
		c.out = c.out[:0]
		kind, payload, err := c.readReply()
		if err != nil {
			return err
		}
		want = c.enc.appendValue(want[:0], k, seq)
		c.attempted++
		if kind != replyBulk || !bytes.Equal(payload, want) {
			c.failed++
		}
	}
	return nil
}

// slice is what the connection measured in one stretch of time at a
// fixed depth. The sample buffers are reused from slice to slice.
type slice struct {
	ops           uint64
	elapsed       time.Duration
	get, set, all []int64 // per-request flush-to-reply ns (depth 1 only)
}

// newSliceBuffer sizes the sample buffers for the longest slice at 100k
// requests/s, so appends inside a slice do not reallocate.
func newSliceBuffer() *slice {
	n := int(storeSlice.Seconds() * 100_000)
	return &slice{get: make([]int64, 0, n), set: make([]int64, 0, n), all: make([]int64, 0, n)}
}

// runSlice drives the connection at a fixed depth until length has
// passed. Every batch counts: elapsed runs to the last reply of the last
// batch, so ops/elapsed is exact however the batches fall.
func (c *client) runSlice(length time.Duration, depth int, s *slice) error {
	s.ops, s.get, s.set, s.all = 0, s.get[:0], s.set[:0], s.all[:0]
	t0 := time.Now()
	for {
		el, set, err := c.batch(depth)
		if err != nil {
			return err
		}
		s.ops += uint64(depth)
		if depth == 1 {
			s.all = append(s.all, int64(el))
			if set {
				s.set = append(s.set, int64(el))
			} else {
				s.get = append(s.get, int64(el))
			}
		}
		if s.elapsed = time.Since(t0); s.elapsed >= length {
			return nil
		}
	}
}
