package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
)

// respConn is a minimal test-side RESP2 client over one connection.
type respConn struct {
	t *testing.T
	c net.Conn
	w *wire.RESPWriter
	r *bufio.Reader
}

func dialServer(t *testing.T, addr string) *respConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &respConn{t: t, c: c, w: wire.NewRESPWriter(c), r: bufio.NewReader(c)}
}

func (rc *respConn) send(args ...string) {
	rc.t.Helper()
	rc.w.Array(len(args))
	for _, a := range args {
		rc.w.BulkString(a)
	}
	if err := rc.w.Flush(); err != nil {
		rc.t.Fatal(err)
	}
}

// reply reads one reply rendered as a flat string: simple strings and
// bulks verbatim, ":"+n for integers, "(nil)" for nulls, "-"+msg for
// errors, arrays as comma-joined elements in brackets.
func (rc *respConn) reply() string {
	rc.t.Helper()
	s, err := readTestReply(rc.r)
	if err != nil {
		rc.t.Fatal(err)
	}
	return s
}

func readTestReply(r *bufio.Reader) (string, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return "", err
	}
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	line = strings.TrimSuffix(line, "\r\n")
	switch typ {
	case '+':
		return line, nil
	case '-':
		return "-" + line, nil
	case ':':
		return ":" + line, nil
	case '$':
		n, _ := strconv.Atoi(line)
		if n < 0 {
			return "(nil)", nil
		}
		buf := make([]byte, n+2)
		for got := 0; got < len(buf); {
			m, err := r.Read(buf[got:])
			if err != nil {
				return "", err
			}
			got += m
		}
		return string(buf[:n]), nil
	case '*':
		n, _ := strconv.Atoi(line)
		if n < 0 {
			return "(nil)", nil
		}
		parts := make([]string, n)
		for i := range parts {
			p, err := readTestReply(r)
			if err != nil {
				return "", err
			}
			parts[i] = p
		}
		return "[" + strings.Join(parts, ",") + "]", nil
	}
	return "", fmt.Errorf("bad reply type %q", typ)
}

// newTestServer builds a single-process serving deployment with a RESP
// front end on an ephemeral port.
func newTestServer(t *testing.T) (*repro.Live, *Server) {
	t.Helper()
	topo := repro.SingleDC(3)
	cfg := repro.ServingDefaults(topo)
	deploy, err := repro.NewServing(topo, cfg, repro.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deploy.Engine.Close() })
	srv := New(deploy, deploy.StaticSession(repro.Quorum, repro.Quorum), repro.Quorum, repro.Quorum)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return deploy, srv
}

// TestClientRESPParity drives the same operation script through the
// in-process Client API and through the RESP front end (on identical
// twin deployments) and requires identical values, existence flags and
// error surfaces from both paths.
func TestClientRESPParity(t *testing.T) {
	mkDeploy := func() *repro.Live {
		topo := repro.SingleDC(3)
		d, err := repro.NewServing(topo, repro.ServingDefaults(topo), repro.ServeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Engine.Close() })
		return d
	}

	// Path A: unified Client API, in process.
	da := mkDeploy()
	cli := da.StaticClient(repro.Quorum, repro.Quorum)
	ctx := context.Background()

	// Path B: loopback RESP through the server.
	db := mkDeploy()
	srv := New(db, db.StaticSession(repro.Quorum, repro.Quorum), repro.Quorum, repro.Quorum)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc := dialServer(t, srv.Addr())

	type step struct {
		resp     []string // RESP command
		wantResp string   // expected RESP rendering
		client   func() string
	}
	renderRead := func(r repro.ReadResult) string {
		switch {
		case r.Err != nil:
			return "-ERR " + r.Err.Error()
		case !r.Exists:
			return "(nil)"
		default:
			return string(r.Value)
		}
	}
	renderWrite := func(r repro.WriteResult) string {
		if r.Err != nil {
			return "-ERR " + r.Err.Error()
		}
		return "OK"
	}
	steps := []step{
		{[]string{"GET", "missing"}, "(nil)", func() string { return renderRead(cli.Get(ctx, "missing")) }},
		{[]string{"SET", "k1", "v1"}, "OK", func() string { return renderWrite(cli.Put(ctx, "k1", []byte("v1"))) }},
		{[]string{"GET", "k1"}, "v1", func() string { return renderRead(cli.Get(ctx, "k1")) }},
		{[]string{"SET", "k1", "v2"}, "OK", func() string { return renderWrite(cli.Put(ctx, "k1", []byte("v2"))) }},
		{[]string{"GET", "k1"}, "v2", func() string { return renderRead(cli.Get(ctx, "k1")) }},
		{[]string{"MGET", "k1", "nope"}, "[v2,(nil)]", func() string {
			rs := cli.BatchGet(ctx, []string{"k1", "nope"})
			parts := make([]string, len(rs))
			for i, r := range rs {
				parts[i] = renderRead(r)
			}
			return "[" + strings.Join(parts, ",") + "]"
		}},
		{[]string{"DEL", "k1"}, ":1", func() string {
			r := cli.Delete(ctx, "k1")
			if r.Err != nil {
				return "-ERR " + r.Err.Error()
			}
			return ":1"
		}},
		{[]string{"GET", "k1"}, "(nil)", func() string { return renderRead(cli.Get(ctx, "k1")) }},
	}
	for i, s := range steps {
		rc.send(s.resp...)
		viaRESP := rc.reply()
		viaClient := s.client()
		if viaRESP != s.wantResp {
			t.Fatalf("step %d %v: RESP path returned %q, want %q", i, s.resp, viaRESP, s.wantResp)
		}
		if viaClient != s.wantResp {
			t.Fatalf("step %d %v: Client path returned %q, want %q", i, s.resp, viaClient, s.wantResp)
		}
	}

	// Both deployments served the same traffic: usage must agree too.
	var ua, ub uint64
	da.Engine.Do(func() { ua = da.Cluster.Usage().CoordOps })
	db.Engine.Do(func() { ub = db.Cluster.Usage().CoordOps })
	if ua != ub {
		t.Fatalf("coordinated ops diverged: client path %d, RESP path %d", ua, ub)
	}
}

func TestPipelinedBatch(t *testing.T) {
	_, srv := newTestServer(t)
	rc := dialServer(t, srv.Addr())

	// Write a whole pipeline in one flush, then read every reply.
	n := 50
	for i := 0; i < n; i++ {
		rc.w.Array(3)
		rc.w.BulkString("SET")
		rc.w.BulkString("pk" + strconv.Itoa(i))
		rc.w.BulkString("pv" + strconv.Itoa(i))
	}
	for i := 0; i < n; i++ {
		rc.w.Array(2)
		rc.w.BulkString("GET")
		rc.w.BulkString("pk" + strconv.Itoa(i))
	}
	if err := rc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := rc.reply(); got != "OK" {
			t.Fatalf("SET %d: %q", i, got)
		}
	}
	for i := 0; i < n; i++ {
		if got, want := rc.reply(), "pv"+strconv.Itoa(i); got != want {
			t.Fatalf("GET %d: %q, want %q", i, got, want)
		}
	}
}

func TestCommandSurface(t *testing.T) {
	_, srv := newTestServer(t)
	rc := dialServer(t, srv.Addr())

	cases := []struct {
		cmd  []string
		want string
	}{
		{[]string{"PING"}, "PONG"},
		{[]string{"PING", "hello"}, "hello"},
		{[]string{"ECHO", "echoed"}, "echoed"},
		{[]string{"MSET", "a", "1", "b", "2"}, "OK"},
		{[]string{"MGET", "a", "b"}, "[1,2]"},
		{[]string{"EXISTS", "a", "b", "nope"}, ":2"},
		{[]string{"DEL", "a", "b"}, ":2"},
		{[]string{"EXISTS", "a"}, ":0"},
		{[]string{"MSET", "a", "1", "b"}, "-ERR wrong number of arguments for 'mset' command"},
		{[]string{"GET"}, "-ERR wrong number of arguments for 'get' command"},
		{[]string{"NOSUCH", "x"}, "-ERR unknown command 'NOSUCH'"},
		{[]string{"COMMAND"}, "[]"},
		{[]string{"SELECT", "0"}, "OK"},
		{[]string{"CONFIG", "GET", "save"}, "[]"},
	}
	for _, tc := range cases {
		rc.send(tc.cmd...)
		if got := rc.reply(); got != tc.want {
			t.Fatalf("%v: got %q, want %q", tc.cmd, got, tc.want)
		}
	}
}

func TestLevelExtension(t *testing.T) {
	_, srv := newTestServer(t)
	rc := dialServer(t, srv.Addr())

	rc.send("LEVEL")
	if got := rc.reply(); got != "[QUORUM,QUORUM]" {
		t.Fatalf("LEVEL: %q", got)
	}
	rc.send("LEVEL", "SET", "ONE", "ALL")
	if got := rc.reply(); got != "OK" {
		t.Fatalf("LEVEL SET: %q", got)
	}
	rc.send("LEVEL")
	if got := rc.reply(); got != "[ONE,ALL]" {
		t.Fatalf("LEVEL after SET: %q", got)
	}
	// Ops now run at the override; LEVEL LAST reports the read's level.
	rc.send("SET", "lk", "lv")
	if got := rc.reply(); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	rc.send("GET", "lk")
	if got := rc.reply(); got != "lv" {
		t.Fatalf("GET: %q", got)
	}
	rc.send("LEVEL", "LAST")
	if got := rc.reply(); got != "[ONE,:0,:0]" {
		t.Fatalf("LEVEL LAST: %q", got)
	}
	rc.send("LEVEL", "RESET")
	if got := rc.reply(); got != "OK" {
		t.Fatalf("LEVEL RESET: %q", got)
	}
	rc.send("LEVEL")
	if got := rc.reply(); got != "[QUORUM,QUORUM]" {
		t.Fatalf("LEVEL after RESET: %q", got)
	}
	// A name is parsed whole: trailing bytes are refused, and a refused
	// SET leaves the connection's levels as they were.
	for _, bad := range []string{"BOGUS", "K(3)junk", "ONEx", "K(0)"} {
		rc.send("LEVEL", "SET", bad, "ONE")
		if got := rc.reply(); !strings.HasPrefix(got, "-ERR") {
			t.Fatalf("LEVEL SET %s ONE: %q", bad, got)
		}
	}
	rc.send("LEVEL")
	if got := rc.reply(); got != "[QUORUM,QUORUM]" {
		t.Fatalf("LEVEL after refused SETs: %q", got)
	}

	// The override is per connection: a second connection still sees the
	// defaults.
	rc2 := dialServer(t, srv.Addr())
	rc.send("LEVEL", "SET", "ONE", "ONE")
	rc.reply()
	rc2.send("LEVEL")
	if got := rc2.reply(); got != "[QUORUM,QUORUM]" {
		t.Fatalf("second connection LEVEL: %q", got)
	}
}

// TestLevelOverridePipelined: with one replica failed and detected, ALL
// is unavailable and QUORUM is not, so each command's outcome shows the
// level it ran at. In one pipelined write, only the commands between
// LEVEL SET ALL ALL and LEVEL RESET may run at ALL.
func TestLevelOverridePipelined(t *testing.T) {
	topo := repro.SingleDC(3)
	cfg := repro.ServingDefaults(topo)
	cfg.DetectionDelay = 20 * time.Millisecond
	deploy, err := repro.NewServing(topo, cfg, repro.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deploy.Engine.Close() })
	srv := New(deploy, deploy.StaticSession(repro.Quorum, repro.Quorum), repro.Quorum, repro.Quorum)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc := dialServer(t, srv.Addr())
	rc.send("MSET", "a", "1", "b", "2")
	if got := rc.reply(); got != "OK" {
		t.Fatalf("MSET: %q", got)
	}

	deploy.Engine.Do(func() { deploy.Cluster.Fail(2) })
	all := deploy.StaticClient(repro.All, repro.All)
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(3 * cfg.DetectionDelay)
		if r := all.Get(context.Background(), "a"); errors.Is(r.Err, repro.ErrUnavailable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the failed replica was never detected")
		}
	}

	unavailable := "-ERR " + repro.ErrUnavailable.Error()
	ops := func(v string) [][]string {
		return [][]string{
			{"GET", "a"}, {"SET", "c", v}, {"MGET", "a", "b"}, {"MSET", "d", v, "e", v}, {"DEL", "d"},
		}
	}
	served := []string{"1", "OK", "[1,2]", "OK", ":1"}
	refused := []string{unavailable, unavailable, "[(nil),(nil)]", unavailable, unavailable}
	var cmds [][]string
	var want []string
	cmds, want = append(cmds, ops("x")...), append(want, served...)
	cmds, want = append(cmds, []string{"LEVEL", "SET", "ALL", "ALL"}), append(want, "OK")
	cmds, want = append(cmds, ops("y")...), append(want, refused...)
	cmds, want = append(cmds, []string{"LEVEL", "RESET"}), append(want, "OK")
	cmds, want = append(cmds, ops("z")...), append(want, served...)
	for _, cmd := range cmds {
		rc.w.Array(len(cmd))
		for _, a := range cmd {
			rc.w.BulkString(a)
		}
	}
	if err := rc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, cmd := range cmds {
		if got := rc.reply(); got != want[i] {
			t.Errorf("%d %v: %q, want %q", i, cmd, got, want[i])
		}
	}
}

func TestInfo(t *testing.T) {
	_, srv := newTestServer(t)
	rc := dialServer(t, srv.Addr())
	rc.send("SET", "ik", "iv")
	rc.reply()
	rc.send("INFO")
	info := rc.reply()
	for _, want := range []string{"members:0,1,2", "rf:3", "read_level:QUORUM", "coord_ops:"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
}

func TestQuitAndClose(t *testing.T) {
	_, srv := newTestServer(t)
	rc := dialServer(t, srv.Addr())
	rc.send("QUIT")
	if got := rc.reply(); got != "OK" {
		t.Fatalf("QUIT: %q", got)
	}
	if _, err := rc.r.ReadByte(); err == nil {
		t.Fatal("connection still open after QUIT")
	}
	// Close with another connection open: must not hang or leak (the
	// TestMain leak check covers the goroutines).
	rc2 := dialServer(t, srv.Addr())
	rc2.send("SET", "x", "y")
	if got := rc2.reply(); got != "OK" {
		t.Fatalf("SET: %q", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInlineCommands(t *testing.T) {
	_, srv := newTestServer(t)
	rc := dialServer(t, srv.Addr())
	// The telnet form: plain text lines.
	if _, err := rc.c.Write([]byte("SET ink inv\r\nGET ink\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := rc.reply(); got != "OK" {
		t.Fatalf("inline SET: %q", got)
	}
	if got := rc.reply(); got != "inv" {
		t.Fatalf("inline GET: %q", got)
	}
}
