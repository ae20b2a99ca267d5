package resp

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cxlsim/internal/obs"
)

// startServer runs a server over a fresh listener, returning its
// address and a stop func that asserts a clean drain.
func startServer(t *testing.T, b Backend, opts Options) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(b, opts)
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return ln.Addr().String(), s, stop
}

// TestServerPipelined sends a burst of pipelined commands in one write
// and asserts the byte-exact concatenated reply stream.
func TestServerPipelined(t *testing.T) {
	addr, _, stop := startServer(t, newMapBackend(), Options{})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" +
		"*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n" +
		"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" +
		"*1\r\n$4\r\nPING\r\n"
	want := "+OK\r\n$5\r\nhello\r\n:1\r\n$-1\r\n+PONG\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("replies:\n got %q\nwant %q", got, want)
	}
}

// TestServerProtocolErrorCloses asserts the Redis contract: malformed
// framing earns one -ERR Protocol error reply, then the server closes.
func TestServerProtocolErrorCloses(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _, stop := startServer(t, newMapBackend(), Options{Registry: reg})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("*1\r\n:bad\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	all, err := io.ReadAll(conn) // server must close after the error reply
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !strings.HasPrefix(string(all), "-ERR Protocol error:") {
		t.Fatalf("reply %q, want -ERR Protocol error prefix", all)
	}
	snap := reg.Snapshot()
	if f, ok := snap.Find(obs.MetricRESPProtocolErrors); !ok || f.Metrics[0].Value != 1 {
		t.Fatalf("resp_protocol_errors_total not incremented")
	}
}

// TestServerMaxConns asserts the cap: the excess client is told off and
// closed without counting as accepted.
func TestServerMaxConns(t *testing.T) {
	reg := obs.NewRegistry()
	addr, _, stop := startServer(t, newMapBackend(), Options{MaxConns: 1, Registry: reg})
	defer stop()

	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Prove the first connection is fully tracked before dialing the
	// second (accept is asynchronous).
	if _, err := first.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	first.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(first, buf); err != nil || string(buf) != "+PONG\r\n" {
		t.Fatalf("first conn ping: %q %v", buf, err)
	}

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	all, _ := io.ReadAll(second)
	if !strings.HasPrefix(string(all), "-ERR max number of clients") {
		t.Fatalf("second conn got %q, want max-clients error", all)
	}
	if f, ok := reg.Snapshot().Find(obs.MetricRESPConnsRejected); !ok || f.Metrics[0].Value != 1 {
		t.Fatal("resp_connections_rejected_total not incremented")
	}
}

// TestServerGracefulDrain pins the drain contract: pipelined commands
// already received are answered before the connection closes, and
// Shutdown returns cleanly.
func TestServerGracefulDrain(t *testing.T) {
	b := newMapBackend()
	addr, s, _ := startServer(t, b, Options{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One answered round-trip proves the connection is established and
	// its read loop running before Shutdown fires.
	if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || line != "+PONG\r\n" {
		t.Fatalf("ping: %q %v", line, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After drain the connection must be closed...
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("post-drain read: %v, want EOF", err)
	}
	// ...and new connections refused.
	if c2, err := net.Dial("tcp", addr); err == nil {
		c2.Close()
		t.Fatal("dial after shutdown succeeded")
	}
}

// writeCounter counts Write calls on the server side of a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// servePipe serves the server end of an in-memory pipe, wrapped in a
// writeCounter, and returns it with the client end. wait blocks until
// the connection loop exits (close the client end first).
func servePipe(b Backend) (client net.Conn, server *writeCounter, wait func()) {
	s := NewServer(b, Options{})
	c, sc := net.Pipe()
	server = &writeCounter{Conn: sc}
	s.wg.Add(1)
	go s.serveConn(server)
	return c, server, s.wg.Wait
}

// pipeline16 builds 16 pipelined commands, SET then GET of eight keys,
// and the reply stream they must produce.
func pipeline16() (req, want []byte) {
	for i := 0; i < 8; i++ {
		key := []byte("key:" + string(rune('a'+i)))
		val := []byte(strings.Repeat("v", 10+i))
		req = EncodeCommand(req, []byte("SET"), key, val)
		req = EncodeCommand(req, []byte("GET"), key)
		want = AppendSimpleString(want, "OK")
		want = AppendBulk(want, val)
	}
	return req, want
}

// sleepyBackend pauses on every GET and SET, as a backend does that
// waits on a lock or a disk, so reply timing cannot hide a flush per
// reply.
type sleepyBackend struct{ *mapBackend }

func (b sleepyBackend) Get(key []byte) ([]byte, bool, error) {
	time.Sleep(50 * time.Microsecond)
	return b.mapBackend.Get(key)
}

func (b sleepyBackend) Set(key, val []byte) error {
	time.Sleep(50 * time.Microsecond)
	return b.mapBackend.Set(key, val)
}

// TestServerOneWritePerPipeline pins the flush contract: a pipelined
// batch received in one read is answered with one write, however long
// each command takes.
func TestServerOneWritePerPipeline(t *testing.T) {
	client, server, wait := servePipe(sleepyBackend{newMapBackend()})
	req, want := pipeline16()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(req); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("replies:\n got %q\nwant %q", got, want)
	}
	client.Close()
	wait()
	if n := server.writes.Load(); n != 1 {
		t.Fatalf("server made %d writes for one pipelined batch, want 1", n)
	}
}

// TestServerFlushesAtThreshold pins the cap on held-back replies: a
// batch whose replies pass flushThreshold is written in parts, and a
// reply buffer that grew past maxIdleReplyBuf is not kept.
func TestServerFlushesAtThreshold(t *testing.T) {
	b := newMapBackend()
	val := strings.Repeat("x", 40<<10)
	b.m["big"] = []byte(val)
	client, server, wait := servePipe(b)
	var req, want []byte
	for i := 0; i < 3; i++ {
		req = EncodeCommand(req, []byte("GET"), []byte("big"))
		want = AppendBulkString(want, val)
	}
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(req); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(client, got); err != nil || string(got) != string(want) {
		t.Fatalf("replies wrong (%d bytes, err %v)", len(got), err)
	}
	client.Close()
	wait()
	// Two 40 KiB replies reach the threshold; the third goes out before
	// the next read.
	if n := server.writes.Load(); n != 2 {
		t.Fatalf("server made %d writes, want 2", n)
	}

	c, peer := net.Pipe()
	defer c.Close()
	go io.Copy(io.Discard, peer)
	cio := &connIO{conn: c, out: make([]byte, 10, 4<<10)}
	if err := cio.flush(); err != nil || len(cio.out) != 0 || cap(cio.out) != 4<<10 {
		t.Fatalf("small buffer not kept for reuse: len %d cap %d err %v", len(cio.out), cap(cio.out), err)
	}
	cio.out = make([]byte, maxIdleReplyBuf+1)
	if err := cio.flush(); err != nil || cio.out != nil {
		t.Fatalf("oversized buffer kept: cap %d err %v", cap(cio.out), err)
	}
}

// TestServerFlushesBeforeBlockingRead pins the no-deadlock half of the
// flush contract: replies already owed go out before the server waits
// for the rest of a partly received command.
func TestServerFlushesBeforeBlockingRead(t *testing.T) {
	addr, _, stop := startServer(t, newMapBackend(), Options{})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)

	if _, err := conn.Write([]byte("*1\r\n$4\r\nPING\r\n*2\r\n$4\r\nEC")); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != nil || line != "+PONG\r\n" {
		t.Fatalf("reply before the rest was sent: %q %v", line, err)
	}
	if _, err := conn.Write([]byte("HO\r\n$2\r\nhi\r\n")); err != nil {
		t.Fatal(err)
	}
	want := "$2\r\nhi\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(br, got); err != nil || string(got) != want {
		t.Fatalf("second reply %q %v, want %q", got, err, want)
	}
}

// BenchmarkServeConnPipeline16 measures one connection loop serving
// 16-deep pipelined SET/GET batches over an in-memory pipe.
func BenchmarkServeConnPipeline16(b *testing.B) {
	client, _, wait := servePipe(newMapBackend())
	req, want := pipeline16()
	got := make([]byte, len(want))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(client, got); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	client.Close()
	wait()
}
