package resp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cxlsim/internal/obs"
)

// mapBackend is a plain concurrent map store for protocol-level tests.
type mapBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	fail error // when set, every data command returns it
}

func newMapBackend() *mapBackend { return &mapBackend{m: map[string][]byte{}} }

func (b *mapBackend) Get(key []byte) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return nil, false, b.fail
	}
	v, ok := b.m[string(key)]
	return v, ok, nil
}

func (b *mapBackend) Set(key, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return b.fail
	}
	b.m[string(key)] = append([]byte(nil), val...)
	return nil
}

func (b *mapBackend) Del(keys [][]byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail != nil {
		return 0, b.fail
	}
	var n int64
	for _, k := range keys {
		if _, ok := b.m[string(k)]; ok {
			delete(b.m, string(k))
			n++
		}
	}
	return n, nil
}

func (b *mapBackend) Exists(keys [][]byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, k := range keys {
		if _, ok := b.m[string(k)]; ok {
			n++
		}
	}
	return n, nil
}

func (b *mapBackend) Incr(key []byte) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	if v, ok := b.m[string(key)]; ok {
		var err error
		if n, err = strconv.ParseInt(string(v), 10, 64); err != nil {
			return 0, ReplyError("ERR value is not an integer or out of range")
		}
	}
	n++
	b.m[string(key)] = []byte(strconv.FormatInt(n, 10))
	return n, nil
}

func (b *mapBackend) MGet(keys [][]byte) ([][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]byte, len(keys))
	for i, k := range keys {
		if v, ok := b.m[string(k)]; ok {
			out[i] = v
		}
	}
	return out, nil
}

func (b *mapBackend) MSet(pairs [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i+1 < len(pairs); i += 2 {
		b.m[string(pairs[i])] = append([]byte(nil), pairs[i+1]...)
	}
	return nil
}

func (b *mapBackend) Info() string { return "role:master\r\n" }

func args(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestDispatchTable(t *testing.T) {
	b := newMapBackend()
	d := NewDispatcher(b)
	cases := []struct {
		cmd  []string
		want string
	}{
		{[]string{"PING"}, "+PONG\r\n"},
		{[]string{"ping", "hello"}, "$5\r\nhello\r\n"},
		{[]string{"ECHO", "hi"}, "$2\r\nhi\r\n"},
		{[]string{"GET", "missing"}, "$-1\r\n"},
		{[]string{"SET", "k", "v"}, "+OK\r\n"},
		{[]string{"GET", "k"}, "$1\r\nv\r\n"},
		{[]string{"EXISTS", "k", "missing", "k"}, ":2\r\n"},
		{[]string{"INCR", "ctr"}, ":1\r\n"},
		{[]string{"INCR", "ctr"}, ":2\r\n"},
		{[]string{"INCR", "k"}, "-ERR value is not an integer or out of range\r\n"},
		{[]string{"MSET", "a", "1", "b", "2"}, "+OK\r\n"},
		{[]string{"MGET", "a", "nope", "b"}, "*3\r\n$1\r\n1\r\n$-1\r\n$1\r\n2\r\n"},
		{[]string{"DEL", "a", "nope", "b"}, ":2\r\n"},
		{[]string{"SELECT", "3"}, "+OK\r\n"},
		{[]string{"COMMAND", "DOCS"}, "*0\r\n"},
		{[]string{"CONFIG", "GET", "appendonly"}, "*2\r\n$10\r\nappendonly\r\n$2\r\nno\r\n"},
		{[]string{"CONFIG", "GET", "save"}, "*2\r\n$4\r\nsave\r\n$0\r\n\r\n"},
		{[]string{"CONFIG", "SET", "maxmemory", "0"}, "+OK\r\n"},
		{[]string{"HELLO", "3"}, "-NOPROTO unsupported protocol version\r\n"},
		{[]string{"GET"}, "-ERR wrong number of arguments for 'get' command\r\n"},
		{[]string{"SET", "k"}, "-ERR wrong number of arguments for 'set' command\r\n"},
		{[]string{"MSET", "k"}, "-ERR wrong number of arguments for 'mset' command\r\n"},
		{[]string{"NOPE", "x"}, "-ERR unknown command 'NOPE'\r\n"},
		{[]string{"evil\r\ncmd"}, "-ERR unknown command 'evil  cmd'\r\n"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.cmd, " "), func(t *testing.T) {
			got, quit := d.Dispatch(args(tc.cmd...), nil)
			if quit {
				t.Fatal("unexpected quit")
			}
			if string(got) != tc.want {
				t.Fatalf("reply %q, want %q", got, tc.want)
			}
		})
	}

	if reply, quit := d.Dispatch(args("QUIT"), nil); !quit || string(reply) != "+OK\r\n" {
		t.Fatalf("QUIT: reply %q quit %v", reply, quit)
	}
}

func TestDispatchErrorMapping(t *testing.T) {
	b := newMapBackend()
	d := NewDispatcher(b)

	b.fail = ReplyError("BUSY spill tier browned out")
	if got, _ := d.Dispatch(args("SET", "k", "v"), nil); string(got) != "-BUSY spill tier browned out\r\n" {
		t.Fatalf("ReplyError not passed verbatim: %q", got)
	}
	b.fail = fmt.Errorf("disk on fire")
	if got, _ := d.Dispatch(args("GET", "k"), nil); string(got) != "-ERR disk on fire\r\n" {
		t.Fatalf("plain error not wrapped as -ERR: %q", got)
	}
}

func TestDispatchMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDispatcher(newMapBackend())
	d.Instrument(reg)

	d.Dispatch(args("PING"), nil)
	d.Dispatch(args("GET", "k"), nil)
	d.Dispatch(args("gEt", "k"), nil)          // mixed case → same label
	d.Dispatch(args("GET"), nil)               // arity error
	d.Dispatch(args("WHATEVER-8291"), nil)     // unknown → bounded label
	d.Dispatch(args("ANOTHER-UNKNOWN-X"), nil) // same label
	long := "A-COMMAND-NAME-LONGER-THAN-SIXTEEN-BYTES"
	if got, _ := d.Dispatch(args(long), nil); string(got) != "-ERR unknown command '"+long+"'\r\n" {
		t.Fatalf("long unknown command: %q", got)
	}

	snap := reg.Snapshot()
	byLabel := labelValues(t, snap, obs.MetricRESPCommands)
	if len(byLabel) != 3 || byLabel["ping"] != 1 || byLabel["get"] != 3 || byLabel["unknown"] != 3 {
		t.Fatalf("command counters wrong: %v", byLabel)
	}
	// Children exist only for commands that were counted: no "set"
	// child (never sent), no "ping" error child (never failed).
	errByLabel := labelValues(t, snap, obs.MetricRESPErrors)
	if len(errByLabel) != 2 || errByLabel["get"] != 1 || errByLabel["unknown"] != 3 {
		t.Fatalf("error counters wrong: %v", errByLabel)
	}
}

// TestDispatchMetricsConcurrent binds the metric children from several
// connections at once; every command must be counted exactly once.
func TestDispatchMetricsConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	d := NewDispatcher(newMapBackend())
	d.Instrument(reg)
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []byte
			for i := 0; i < each; i++ {
				out, _ = d.Dispatch(args("GET"), out[:0]) // arity error
				out, _ = d.Dispatch(args("NOPE"), out[:0])
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	for _, name := range []string{obs.MetricRESPCommands, obs.MetricRESPErrors} {
		got := labelValues(t, snap, name)
		if len(got) != 2 || got["get"] != workers*each || got["unknown"] != workers*each {
			t.Fatalf("%s: %v, want %d each for get and unknown", name, got, workers*each)
		}
	}
}

// labelValues maps a one-label family's children to their values.
func labelValues(t *testing.T, snap obs.Snapshot, name string) map[string]float64 {
	t.Helper()
	f, ok := snap.Find(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	m := map[string]float64{}
	for _, c := range f.Metrics {
		m[c.LabelValues[0]] = c.Value
	}
	return m
}

// stubBackend answers GET with a fixed value and accepts SET without
// copying, so only the dispatcher's own allocations are measured.
type stubBackend struct {
	*mapBackend
	val []byte
}

func (b stubBackend) Get([]byte) ([]byte, bool, error) { return b.val, true, nil }
func (b stubBackend) Set(_, _ []byte) error            { return nil }

// TestDispatchAllocs pins that resolving and counting GET/SET costs no
// allocation once the reply buffer is warm and the metric children are
// bound.
func TestDispatchAllocs(t *testing.T) {
	d := NewDispatcher(stubBackend{newMapBackend(), []byte("value")})
	d.Instrument(obs.NewRegistry())
	get, set := args("GET", "k"), args("set", "k", "v")
	buf, _ := d.Dispatch(get, nil)
	buf, _ = d.Dispatch(set, buf)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = d.Dispatch(get, buf[:0])
		buf, _ = d.Dispatch(set, buf)
	}); n != 0 {
		t.Fatalf("Dispatch of GET+SET allocates %v times, want 0", n)
	}
}
