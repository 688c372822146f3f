// Package server is the Redis-compatible TCP front end of a serving
// deployment: a per-connection event loop that parses pipelined RESP2
// commands, maps them onto the store's unified client machinery
// (sessions under the engine lock, exactly as the in-process Client
// drives them), and writes a pipeline's worth of replies in one flush.
// GET/SET/DEL/MGET/MSET/EXISTS cover the data path; LEVEL exposes
// per-connection consistency control and per-operation level/staleness
// introspection; INFO reports cluster membership, adaptive levels and
// usage meters. redis-cli and redis-benchmark speak to it natively.
package server

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/wire"
)

// maxBatch bounds the commands dispatched per pipeline batch.
const maxBatch = 1024

// Server serves RESP2 connections over one serving deployment.
type Server struct {
	deploy *repro.Live
	sess   repro.Session
	ctl    *repro.Controller // optional: adaptive level introspection
	defR   repro.Level       // reported levels when no controller is set
	defW   repro.Level

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// New returns a server issuing operations through sess on deploy. The
// static levels are what LEVEL/INFO report when no controller is
// attached (SetController for adaptive sessions).
func New(deploy *repro.Live, sess repro.Session, read, write repro.Level) *Server {
	return &Server{
		deploy: deploy,
		sess:   sess,
		defR:   read,
		defW:   write,
		conns:  make(map[net.Conn]struct{}),
	}
}

// SetController attaches the controller re-tuning sess, so LEVEL and
// INFO report the adaptive decision instead of the static levels.
func (s *Server) SetController(ctl *repro.Controller) { s.ctl = ctl }

// Listen binds addr and starts accepting connections.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr reports the bound listen address (tests bind port 0).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, closes every connection and joins all
// connection goroutines. The deployment itself is not closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(nc)
	}
}

func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	c := &conn{srv: s, done: make(chan struct{}, 1)}
	c.dispatch = c.issue
	r := wire.NewRESPReader(nc)
	w := wire.NewRESPWriter(nc)
	for {
		args, err := r.ReadCommand()
		if err != nil {
			return // client gone or protocol violation
		}
		c.n = 0
		c.addOp(args)
		// Keep consuming while fully-buffered pipelined commands remain,
		// so the whole burst is dispatched before a single flush.
		for c.n < maxBatch {
			args, ok, err := r.TryReadCommand()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			c.addOp(args)
		}
		c.execute()
		c.reply(w)
		if err := w.Flush(); err != nil || c.quit {
			return
		}
	}
}

// opKind tags one parsed command with how it executes and replies.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opMGet
	opMSet
	opExists
	opInfo
	opLevelReport // LEVEL / LEVEL GET: current effective levels
	opLevelLast   // LEVEL LAST: last read's level/staleness on this conn
	opSimple      // immediate +msg
	opArray0      // immediate *0
	opError       // immediate -msg
	opQuit
)

// op is one parsed command with its captured arguments and, after
// execute, its results. Ops live in per-connection slots reused across
// batches; done holds the slot's completion callbacks, bound once when
// the slot is created so that dispatching a command allocates nothing.
type op struct {
	kind opKind
	key  string
	val  []byte
	keys []string
	puts []repro.PutOp
	msg  string

	// Level override captured at parse time (LEVEL SET is positional:
	// it applies to the commands after it, pipelined or not).
	lvlR, lvlW repro.Level
	useLvl     bool

	rr  repro.ReadResult
	wr  repro.WriteResult
	rrs []repro.ReadResult
	wrs []repro.WriteResult

	done completions
}

// completions are the callbacks the store completes an op through: each
// records the result in its slot and counts the batch down.
type completions struct {
	read   func(repro.ReadResult)
	write  func(repro.WriteResult)
	reads  func([]repro.ReadResult)
	writes func([]repro.WriteResult)
}

// conn is the per-connection state.
type conn struct {
	srv  *Server
	ops  []*op // slots; the first n hold the current batch
	n    int
	quit bool

	// Completion of the current batch: remaining counts its store
	// operations still in flight, and the callback that takes it to zero
	// signals done (buffered, so it never blocks under the engine lock).
	remaining atomic.Int32
	done      chan struct{}
	dispatch  func()

	// Per-connection consistency override (LEVEL SET / LEVEL RESET).
	ovr        bool
	ovrR, ovrW repro.Level

	// Last single-key read completed on this connection, in command
	// order (LEVEL LAST reads it).
	lastRead repro.ReadResult
	haveLast bool
}

// push stores a parsed op in the batch's next slot, stamping the current
// level override.
func (c *conn) push(o op) {
	if c.n == len(c.ops) {
		c.ops = append(c.ops, c.newSlot())
	}
	slot := c.ops[c.n]
	c.n++
	o.useLvl, o.lvlR, o.lvlW = c.ovr, c.ovrR, c.ovrW
	o.done = slot.done
	*slot = o
}

func (c *conn) newSlot() *op {
	o := new(op)
	o.done = completions{
		read:   func(r repro.ReadResult) { o.rr = r; c.completed() },
		write:  func(r repro.WriteResult) { o.wr = r; c.completed() },
		reads:  func(rs []repro.ReadResult) { o.rrs = rs; c.completed() },
		writes: func(rs []repro.WriteResult) { o.wrs = rs; c.completed() },
	}
	return o
}

func (c *conn) completed() {
	if c.remaining.Add(-1) == 0 {
		c.done <- struct{}{}
	}
}

// addOp parses one command's arguments (views into the reader buffer —
// anything retained is copied here).
func (c *conn) addOp(args [][]byte) {
	if len(args) == 0 {
		return
	}
	name := args[0]
	switch {
	case ciEqual(name, "GET"):
		if len(args) != 2 {
			c.pushArity("get")
			return
		}
		c.push(op{kind: opGet, key: string(args[1])})
	case ciEqual(name, "SET"):
		if len(args) != 3 {
			c.pushArity("set")
			return
		}
		c.push(op{kind: opSet, key: string(args[1]), val: append([]byte(nil), args[2]...)})
	case ciEqual(name, "DEL"):
		if len(args) < 2 {
			c.pushArity("del")
			return
		}
		c.push(op{kind: opDel, puts: delOps(args[1:])})
	case ciEqual(name, "MGET"):
		if len(args) < 2 {
			c.pushArity("mget")
			return
		}
		c.push(op{kind: opMGet, keys: copyKeys(args[1:])})
	case ciEqual(name, "MSET"):
		if len(args) < 3 || len(args)%2 == 0 {
			c.pushArity("mset")
			return
		}
		puts := make([]repro.PutOp, 0, (len(args)-1)/2)
		for i := 1; i < len(args); i += 2 {
			puts = append(puts, repro.PutOp{Key: string(args[i]), Value: append([]byte(nil), args[i+1]...)})
		}
		c.push(op{kind: opMSet, puts: puts})
	case ciEqual(name, "EXISTS"):
		if len(args) < 2 {
			c.pushArity("exists")
			return
		}
		c.push(op{kind: opExists, keys: copyKeys(args[1:])})
	case ciEqual(name, "LEVEL"):
		c.addLevelOp(args)
	case ciEqual(name, "INFO"):
		c.push(op{kind: opInfo})
	case ciEqual(name, "PING"):
		if len(args) == 2 {
			c.push(op{kind: opSimple, msg: string(args[1])})
			return
		}
		c.push(op{kind: opSimple, msg: "PONG"})
	case ciEqual(name, "ECHO"):
		if len(args) != 2 {
			c.pushArity("echo")
			return
		}
		c.push(op{kind: opGet, rr: repro.ReadResult{Exists: true, Value: append([]byte(nil), args[1]...)}, key: ""})
	case ciEqual(name, "QUIT"):
		c.push(op{kind: opQuit})
	case ciEqual(name, "SELECT"), ciEqual(name, "CLIENT"):
		c.push(op{kind: opSimple, msg: "OK"})
	case ciEqual(name, "COMMAND"):
		c.push(op{kind: opArray0})
	case ciEqual(name, "CONFIG"):
		if len(args) >= 2 && ciEqual(args[1], "SET") {
			c.push(op{kind: opSimple, msg: "OK"})
			return
		}
		c.push(op{kind: opArray0})
	default:
		c.push(op{kind: opError, msg: fmt.Sprintf("ERR unknown command '%s'", string(name))})
	}
}

// addLevelOp parses the LEVEL command extension:
//
//	LEVEL [GET]              -> *2 [read, write] effective levels
//	LEVEL SET <read> <write> -> pin this connection's levels
//	LEVEL RESET              -> back to the (adaptive) session levels
//	LEVEL LAST               -> *3 [level, stale, cached] of the last GET
func (c *conn) addLevelOp(args [][]byte) {
	switch {
	case len(args) == 1 || (len(args) == 2 && ciEqual(args[1], "GET")):
		c.push(op{kind: opLevelReport})
	case len(args) == 4 && ciEqual(args[1], "SET"):
		r, err := repro.ParseLevel(string(args[2]))
		if err != nil {
			c.push(op{kind: opError, msg: "ERR " + err.Error()})
			return
		}
		w, err := repro.ParseLevel(string(args[3]))
		if err != nil {
			c.push(op{kind: opError, msg: "ERR " + err.Error()})
			return
		}
		c.ovr, c.ovrR, c.ovrW = true, r, w
		c.push(op{kind: opSimple, msg: "OK"})
	case len(args) == 2 && ciEqual(args[1], "RESET"):
		c.ovr = false
		c.push(op{kind: opSimple, msg: "OK"})
	case len(args) == 2 && ciEqual(args[1], "LAST"):
		c.push(op{kind: opLevelLast})
	default:
		c.pushArity("level")
	}
}

func (c *conn) pushArity(cmd string) {
	c.push(op{kind: opError, msg: "ERR wrong number of arguments for '" + cmd + "' command"})
}

// execute dispatches the batch's store operations in one engine-lock
// acquisition and waits for the last completion. In a single-process
// deployment every operation completes synchronously inside Do (the
// run queue drains before the lock is released); with remote replicas
// the completions arrive from peer frames and the guard timers bound
// the wait.
func (c *conn) execute() {
	pending, needEngine := int32(0), false
	for _, o := range c.ops[:c.n] {
		switch o.kind {
		case opGet:
			if o.key != "" {
				pending++
			}
		case opSet, opDel, opMGet, opMSet, opExists:
			pending++
		case opInfo, opLevelReport:
			needEngine = true
		}
	}
	if pending == 0 && !needEngine {
		return
	}
	c.remaining.Store(pending)
	c.srv.deploy.Engine.Do(c.dispatch)
	if pending > 0 {
		<-c.done
	}
}

// issue hands the batch's operations to the store. It runs under the
// engine lock (dispatch is the method value execute passes to Do, bound
// once per connection).
func (c *conn) issue() {
	cl := c.srv.deploy.Cluster
	sess := c.srv.sess
	for _, o := range c.ops[:c.n] {
		switch o.kind {
		case opGet:
			if o.key == "" {
				continue // ECHO rides the opGet reply path, pre-resolved
			}
			if o.useLvl {
				cl.Read(o.key, o.lvlR, o.done.read)
			} else {
				sess.Read(o.key, o.done.read)
			}
		case opSet:
			if o.useLvl {
				cl.Write(o.key, o.val, o.lvlW, o.done.write)
			} else {
				sess.Write(o.key, o.val, o.done.write)
			}
		case opDel, opMSet:
			if o.useLvl {
				cl.WriteBatch(o.puts, o.lvlW, o.done.writes)
			} else {
				sess.BatchWrite(o.puts, o.done.writes)
			}
		case opMGet, opExists:
			if o.useLvl {
				cl.ReadBatch(o.keys, o.lvlR, o.done.reads)
			} else {
				sess.BatchRead(o.keys, o.done.reads)
			}
		case opInfo:
			o.val = c.srv.renderInfo(o.val[:0])
		case opLevelReport:
			r, w := c.effectiveLevels()
			o.key, o.msg = r.String(), w.String()
		}
	}
}

// effectiveLevels reports the levels the next session-level operation
// would use: the connection override, else the controller's current
// decision, else the server's static levels. Runs under the engine
// lock.
func (c *conn) effectiveLevels() (repro.Level, repro.Level) {
	if c.ovr {
		return c.ovrR, c.ovrW
	}
	if ctl := c.srv.ctl; ctl != nil {
		d := ctl.Current()
		return d.ReadLevel, d.WriteLevel
	}
	return c.srv.defR, c.srv.defW
}

// reply renders the batch's replies in command order.
func (c *conn) reply(w *wire.RESPWriter) {
	for _, o := range c.ops[:c.n] {
		switch o.kind {
		case opGet:
			if o.key != "" {
				c.lastRead, c.haveLast = o.rr, true
			}
			switch {
			case o.rr.Err != nil:
				w.Error(respError(o.rr.Err))
			case !o.rr.Exists:
				w.Null()
			default:
				w.Bulk(o.rr.Value)
			}
		case opSet:
			if o.wr.Err != nil {
				w.Error(respError(o.wr.Err))
			} else {
				w.SimpleString("OK")
			}
		case opDel, opMSet:
			acked, err := tallyWrites(o.wrs)
			switch {
			case err != nil && acked == 0:
				w.Error(respError(err))
			case o.kind == opDel:
				w.Int(acked)
			default:
				w.SimpleString("OK")
			}
		case opMGet:
			w.Array(len(o.rrs))
			for _, r := range o.rrs {
				if r.Err != nil || !r.Exists {
					w.Null()
				} else {
					w.Bulk(r.Value)
				}
			}
		case opExists:
			n := int64(0)
			for _, r := range o.rrs {
				if r.Err == nil && r.Exists {
					n++
				}
			}
			w.Int(n)
		case opInfo:
			w.Bulk(o.val)
		case opLevelReport:
			w.Array(2)
			w.BulkString(o.key)
			w.BulkString(o.msg)
		case opLevelLast:
			if !c.haveLast {
				w.Null()
				continue
			}
			w.Array(3)
			w.BulkString(c.lastRead.Level.String())
			w.Int(boolInt(c.lastRead.Stale))
			w.Int(boolInt(c.lastRead.Cached))
		case opSimple:
			w.SimpleString(o.msg)
		case opArray0:
			w.Array(0)
		case opError:
			w.Error(o.msg)
		case opQuit:
			w.SimpleString("OK")
			c.quit = true
		}
	}
}

// renderInfo builds the INFO payload under the engine lock.
func (s *Server) renderInfo(buf []byte) []byte {
	cl := s.deploy.Cluster
	u := cl.Usage()
	buf = append(buf, "# Cluster\r\n"...)
	buf = append(buf, "members:"...)
	for i, id := range cl.Members() {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	buf = append(buf, "\r\nrf:"...)
	buf = strconv.AppendInt(buf, int64(cl.RF()), 10)
	buf = append(buf, "\r\n\r\n# Levels\r\n"...)
	if s.ctl != nil {
		d := s.ctl.Current()
		buf = append(buf, "adaptive:1\r\nread_level:"...)
		buf = append(buf, d.ReadLevel.String()...)
		buf = append(buf, "\r\nwrite_level:"...)
		buf = append(buf, d.WriteLevel.String()...)
		buf = append(buf, "\r\nreason:"...)
		buf = append(buf, d.Reason...)
	} else {
		buf = append(buf, "adaptive:0\r\nread_level:"...)
		buf = append(buf, s.defR.String()...)
		buf = append(buf, "\r\nwrite_level:"...)
		buf = append(buf, s.defW.String()...)
	}
	buf = append(buf, "\r\nstale_rate:"...)
	buf = strconv.AppendFloat(buf, cl.Oracle().StaleRate(), 'f', 4, 64)
	buf = append(buf, "\r\n\r\n# Usage\r\n"...)
	buf = appendMeter(buf, "coord_ops", u.CoordOps)
	buf = appendMeter(buf, "replica_reads", u.ReplicaReads)
	buf = appendMeter(buf, "replica_writes", u.ReplicaWrites)
	buf = appendMeter(buf, "read_repairs", u.ReadRepairs)
	buf = appendMeter(buf, "cache_hits", u.CacheHits)
	buf = appendMeter(buf, "cache_misses", u.CacheMisses)
	buf = append(buf, "stored_bytes:"...)
	buf = strconv.AppendInt(buf, u.StoredBytes, 10)
	buf = append(buf, "\r\n"...)
	if hot := cl.HotKeys(); len(hot) > 0 {
		buf = append(buf, "hot_keys:"...)
		for i, k := range hot {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, k...)
		}
		buf = append(buf, "\r\n"...)
	}
	return buf
}

func appendMeter(buf []byte, name string, v uint64) []byte {
	buf = append(buf, name...)
	buf = append(buf, ':')
	buf = strconv.AppendUint(buf, v, 10)
	return append(buf, '\r', '\n')
}

// respError renders a store error as a RESP error message.
func respError(err error) string { return "ERR " + err.Error() }

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func tallyWrites(rs []repro.WriteResult) (int64, error) {
	var acked int64
	var firstErr error
	for _, r := range rs {
		if r.Err == nil {
			acked++
		} else if firstErr == nil {
			firstErr = r.Err
		}
	}
	return acked, firstErr
}

func delOps(keys [][]byte) []repro.PutOp {
	ops := make([]repro.PutOp, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, repro.PutOp{Key: string(k), Delete: true})
	}
	return ops
}

func copyKeys(args [][]byte) []string {
	keys := make([]string, 0, len(args))
	for _, a := range args {
		keys = append(keys, string(a))
	}
	return keys
}

// ciEqual reports ASCII case-insensitive equality of b against the
// upper-case reference s, without allocating.
func ciEqual(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
