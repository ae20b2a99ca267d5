package resp

import (
	"strings"
	"sync/atomic"

	"cxlsim/internal/obs"
)

// Backend is the storage engine behind the data commands. Implementations
// must be safe for concurrent use — the server dispatches from one
// goroutine per connection.
//
// Errors of type ReplyError reach the client verbatim (the brownout
// contract: a degraded durable tier surfaces as -BUSY on writes and
// -LOADING on disk-backed reads); any other error is wrapped as -ERR.
type Backend interface {
	// Get returns the value for key; ok is false when absent.
	Get(key []byte) (val []byte, ok bool, err error)
	// Set stores key=val.
	Set(key, val []byte) error
	// Del removes keys, returning how many existed.
	Del(keys [][]byte) (int64, error)
	// Exists counts how many of keys exist (duplicates counted again).
	Exists(keys [][]byte) (int64, error)
	// Incr adds one to the integer at key (missing ⇒ 0) and returns it.
	Incr(key []byte) (int64, error)
	// MGet returns one value per key, nil for missing keys.
	MGet(keys [][]byte) ([][]byte, error)
	// MSet stores key/value pairs; pairs is [k1, v1, k2, v2, ...].
	MSet(pairs [][]byte) error
	// Info renders the INFO reply body (Redis's "key:value" lines).
	Info() string
}

// Dispatcher routes parsed commands to a Backend and encodes replies.
type Dispatcher struct {
	b Backend

	// Per-command observability; nil until Instrument.
	cmds *obs.CounterVec
	errs *obs.CounterVec
	// calls and fails cache each command's children of cmds and errs,
	// indexed by cmdID. A child is bound the first time it is counted,
	// so the exposition lists only commands that were sent.
	calls, fails [numCmds]atomic.Pointer[obs.Counter]
}

// NewDispatcher returns a dispatcher over b.
func NewDispatcher(b Backend) *Dispatcher { return &Dispatcher{b: b} }

// Instrument publishes per-command request and error counters into reg.
func (d *Dispatcher) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.cmds = reg.CounterVec(obs.MetricRESPCommands, "RESP commands dispatched", "cmd")
	d.errs = reg.CounterVec(obs.MetricRESPErrors, "RESP commands answered with an error reply", "cmd")
}

// cmdID indexes the known commands. Everything else is cmdUnknown and
// counts under the "unknown" label, so a hostile client cannot mint
// unbounded label values.
type cmdID uint8

const (
	cmdGet cmdID = iota
	cmdSet
	cmdDel
	cmdExists
	cmdIncr
	cmdMGet
	cmdMSet
	cmdPing
	cmdEcho
	cmdInfo
	cmdConfig
	cmdCommand
	cmdSelect
	cmdQuit
	cmdHello
	cmdUnknown
	numCmds
)

// cmdNames holds each command's lower-case name, which is also its
// metric label.
var cmdNames = [numCmds]string{
	"get", "set", "del", "exists", "incr", "mget", "mset", "ping", "echo",
	"info", "config", "command", "select", "quit", "hello", "unknown",
}

// maxCmdName is the longest known command name; longer names are
// unknown without a lookup.
const maxCmdName = len("command")

// lookup resolves a command name case-insensitively without
// allocating.
func lookup(name []byte) cmdID {
	if len(name) > maxCmdName {
		return cmdUnknown
	}
	var buf [maxCmdName]byte
	lower := buf[:len(name)]
	for i, c := range name {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	for id, n := range cmdNames[:cmdUnknown] {
		if string(lower) == n {
			return cmdID(id)
		}
	}
	return cmdUnknown
}

// child returns vec's child for id, binding it into cache on first use.
func child(cache *atomic.Pointer[obs.Counter], vec *obs.CounterVec, id cmdID) *obs.Counter {
	c := cache.Load()
	if c == nil {
		c = vec.With(cmdNames[id])
		cache.Store(c)
	}
	return c
}

// Dispatch executes one command, appending its reply to out and
// returning the extended buffer. quit reports that the client asked to
// close (QUIT) after the reply is flushed. Empty argument lists are the
// caller's to skip.
func (d *Dispatcher) Dispatch(args [][]byte, out []byte) (reply []byte, quit bool) {
	id := lookup(args[0])
	if d.cmds != nil {
		child(&d.calls[id], d.cmds, id).Inc()
	}
	before := len(out)
	out, quit = d.exec(id, args, out)
	if d.errs != nil && len(out) > before && out[before] == '-' {
		child(&d.fails[id], d.errs, id).Inc()
	}
	return out, quit
}

func (d *Dispatcher) exec(id cmdID, args [][]byte, out []byte) ([]byte, bool) {
	cmd := cmdNames[id]
	switch id {
	case cmdGet:
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		v, ok, err := d.b.Get(args[1])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		if !ok {
			return AppendNull(out), false
		}
		return AppendBulk(out, v), false

	case cmdSet:
		// Plain two-argument SET only; the EX/PX/NX/XX options are not
		// modeled (redis-benchmark's SET workload never sends them).
		if len(args) != 3 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		if err := d.b.Set(args[1], args[2]); err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendSimpleString(out, "OK"), false

	case cmdDel:
		if len(args) < 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		n, err := d.b.Del(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case cmdExists:
		if len(args) < 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		n, err := d.b.Exists(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case cmdIncr:
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		n, err := d.b.Incr(args[1])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendInt(out, n), false

	case cmdMGet:
		if len(args) < 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		vals, err := d.b.MGet(args[1:])
		if err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		out = AppendArray(out, len(vals))
		for _, v := range vals {
			if v == nil {
				out = AppendNull(out)
			} else {
				out = AppendBulk(out, v)
			}
		}
		return out, false

	case cmdMSet:
		if len(args) < 3 || len(args)%2 != 1 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		if err := d.b.MSet(args[1:]); err != nil {
			return AppendError(out, ErrorReply(err)), false
		}
		return AppendSimpleString(out, "OK"), false

	case cmdPing:
		switch len(args) {
		case 1:
			return AppendSimpleString(out, "PONG"), false
		case 2:
			return AppendBulk(out, args[1]), false
		}
		return AppendError(out, string(wrongArity(cmd))), false

	case cmdEcho:
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		return AppendBulk(out, args[1]), false

	case cmdInfo:
		return AppendBulkString(out, d.b.Info()), false

	case cmdConfig:
		// redis-benchmark probes CONFIG GET save / appendonly at startup;
		// answer with inert values so it proceeds. CONFIG SET is accepted
		// and ignored — there is no live reconfiguration surface here.
		if len(args) >= 3 && strings.EqualFold(string(args[1]), "get") {
			out = AppendArray(out, 2)
			out = AppendBulk(out, args[2])
			switch strings.ToLower(string(args[2])) {
			case "appendonly":
				out = AppendBulkString(out, "no")
			case "maxmemory":
				out = AppendBulkString(out, "0")
			default:
				out = AppendBulkString(out, "")
			}
			return out, false
		}
		if len(args) >= 2 && strings.EqualFold(string(args[1]), "set") {
			return AppendSimpleString(out, "OK"), false
		}
		return AppendError(out, "ERR unknown CONFIG subcommand"), false

	case cmdCommand:
		// COMMAND [DOCS|COUNT|...]: clients only use this to size tab
		// completion; an empty array (or zero count) is a valid answer.
		if len(args) >= 2 && strings.EqualFold(string(args[1]), "count") {
			return AppendInt(out, int64(cmdUnknown)), false // the known-command count
		}
		return AppendArray(out, 0), false

	case cmdSelect:
		// Single keyspace: accept any database index.
		if len(args) != 2 {
			return AppendError(out, string(wrongArity(cmd))), false
		}
		return AppendSimpleString(out, "OK"), false

	case cmdQuit:
		return AppendSimpleString(out, "OK"), true

	case cmdHello:
		// RESP3 negotiation: refusing makes redis-cli ≥ 6 fall back to
		// RESP2, which is all this front end speaks.
		return AppendError(out, "NOPROTO unsupported protocol version"), false
	}
	return AppendError(out, "ERR unknown command '"+sanitize(string(args[0]))+"'"), false
}

// sanitize strips CR/LF from client-supplied text echoed into error
// replies, so a hostile command name cannot inject protocol frames.
func sanitize(s string) string {
	if len(s) > 64 {
		s = s[:64]
	}
	return strings.Map(func(r rune) rune {
		if r == '\r' || r == '\n' {
			return ' '
		}
		return r
	}, s)
}
