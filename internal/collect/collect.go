// Package collect implements the network-facing half of the measurement
// substrate: a TCP collection service that accepts probe record streams
// (the Section 3 "passive measurement probes" feeding a central platform)
// and folds them into the per-hour, per-antenna, per-service aggregates the
// analysis consumes, plus the matching exporter client.
//
// The collector accepts many concurrent probe connections, applies the
// wire-format validation of the probe package, classifies and aggregates
// records under a single lock-guarded aggregator (the Sink, shared with the
// HTTP serving path in internal/serve), counts malformed streams without
// letting them poison the aggregate, and shuts down gracefully: closing the
// listener, draining in-flight connections, and honoring context
// cancellation. The exporter client retries transient dial failures with
// jittered exponential backoff under an explicit retry budget.
package collect

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/mat"
	"repro/internal/pipe"
	"repro/internal/probe"
	"repro/internal/rng"
)

// Stats is a point-in-time snapshot of collector activity.
type Stats struct {
	// Connections is the number of probe connections accepted.
	Connections int
	// Records is the number of well-formed records aggregated.
	Records int
	// MalformedStreams counts connections dropped due to framing errors.
	MalformedStreams int
	// UnclassifiedMB is traffic whose server name no classifier rule
	// matched.
	UnclassifiedMB float64
}

// Collector is a TCP server aggregating probe record streams into a Sink.
type Collector struct {
	ln        net.Listener
	sink      *Sink
	readLimit time.Duration
	shutdown  chan struct{}

	// handlers tracks per-connection goroutines so shutdown can drain
	// them; all spawning goes through pipe.Tasks per the module's
	// pool-only-goroutines contract.
	handlers pipe.Tasks
}

// settings is the package's unified option state: one functional-option
// surface configures both entry points. Each entry point reads only the
// fields that concern it — a dial option passed to ListenContext is simply
// inert, and vice versa — so callers can keep one shared option slice.
type settings struct {
	// Collector side.
	readLimit time.Duration
	sink      *Sink
	// Exporter side.
	export exportConfig
}

func defaultSettings() settings {
	return settings{
		readLimit: 30 * time.Second,
		export:    exportConfig{base: 50 * time.Millisecond},
	}
}

// Option customizes ListenContext and Export. The collector options are
// WithReadTimeout and WithSink; the exporter options are WithDialRetry,
// WithRetrySeed and WithDialContext. Options that do not apply to an entry
// point are ignored by it.
type Option func(*settings)

// WithReadTimeout bounds how long a connection may stay silent before it
// is dropped (default 30s; tests use shorter values).
func WithReadTimeout(d time.Duration) Option {
	return func(s *settings) { s.readLimit = d }
}

// WithSink folds records into an existing sink instead of a fresh one,
// letting one aggregate receive both TCP and HTTP producers.
func WithSink(sk *Sink) Option {
	return func(s *settings) {
		if sk != nil {
			s.sink = sk
		}
	}
}

// ListenContext starts a collector on addr ("host:port"; use "127.0.0.1:0"
// for an ephemeral port), honoring ctx cancellation while the listener is
// being bound. The caller must invoke Serve to accept connections.
func ListenContext(ctx context.Context, addr string, opts ...Option) (*Collector, error) {
	st := defaultSettings()
	for _, o := range opts {
		o(&st)
	}
	// ListenConfig only consults ctx during name resolution, so a local
	// bind under an already-dead context would still succeed without this.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("collect: listen %s: %w", addr, err)
	}
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen %s: %w", addr, err)
	}
	c := &Collector{
		ln:        ln,
		sink:      st.sink,
		readLimit: st.readLimit,
		shutdown:  make(chan struct{}),
	}
	if c.sink == nil {
		c.sink = NewSink()
	}
	return c, nil
}

// Addr returns the listener address (useful with ephemeral ports).
func (c *Collector) Addr() net.Addr { return c.ln.Addr() }

// Sink returns the aggregation core records are folded into.
func (c *Collector) Sink() *Sink { return c.sink }

// Serve accepts probe connections until the context is canceled or the
// listener fails. It always returns a non-nil error: ctx.Err() after a
// clean shutdown, or the listener error otherwise.
func (c *Collector) Serve(ctx context.Context) error {
	done := make(chan struct{})
	var watch pipe.Tasks
	defer watch.Wait()
	defer close(done)
	watch.Go(func() {
		select {
		case <-ctx.Done():
			close(c.shutdown)
			c.ln.Close()
		case <-done:
		}
	})

	for {
		conn, err := c.ln.Accept()
		if err != nil {
			// Drain in-flight connections before returning.
			c.handlers.Wait()
			select {
			case <-c.shutdown:
				return ctx.Err()
			default:
			}
			return fmt.Errorf("collect: accept: %w", err)
		}
		c.sink.NoteConnection()
		c.handlers.Go(func() { c.handle(conn) })
	}
}

// handle drains one probe stream. Records are aggregated as they arrive so
// a long-lived probe feed contributes continuously.
func (c *Collector) handle(conn net.Conn) {
	defer conn.Close()

	reader := probe.NewReader(conn)
	for {
		if c.readLimit > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(c.readLimit)); err != nil {
				return
			}
		}
		rec, err := reader.Read()
		if err == io.EOF {
			return
		}
		if err != nil {
			c.sink.NoteMalformed()
			return
		}
		c.sink.Add(rec)
	}
}

// Snapshot returns current collector statistics.
func (c *Collector) Snapshot() Stats { return c.sink.Snapshot() }

// TotalMB returns the aggregated MB for (antenna, service).
func (c *Collector) TotalMB(antenna uint32, service int) float64 {
	return c.sink.TotalMB(antenna, service)
}

// HourlyMB returns the aggregated MB for (antenna, service, hour).
func (c *Collector) HourlyMB(antenna uint32, service int, hour uint32) float64 {
	return c.sink.HourlyMB(antenna, service, hour)
}

// Close stops the listener immediately. In-flight handlers finish on their
// own; use Serve with a canceled context for a drained shutdown.
func (c *Collector) Close() error { return c.ln.Close() }

// TrafficMatrix materializes the aggregated totals as an antennas × M
// traffic matrix for antenna ids [0, antennas) — the T matrix of
// Section 4.1 as collected over the wire.
func (c *Collector) TrafficMatrix(antennas, numServices int) *mat.Dense {
	return c.sink.TrafficMatrix(antennas, numServices)
}

// ErrNoRecords reports an Export call with nothing to send.
var ErrNoRecords = errors.New("collect: no records to export")

// exportConfig carries the exporter's retry policy.
type exportConfig struct {
	attempts int
	base     time.Duration
	maxDelay time.Duration
	seed     uint64
	seedSet  bool
	dial     func(ctx context.Context, addr string) (net.Conn, error)
}

// WithDialRetry retries transient dial failures up to budget additional
// attempts, sleeping base·2ⁱ plus up to 50% deterministic jitter between
// attempts (capped at 8·base). A refused connection during a collector
// restart no longer fails the whole export.
func WithDialRetry(budget int, base time.Duration) Option {
	return func(s *settings) {
		if budget > 0 {
			s.export.attempts = budget
		}
		if base > 0 {
			s.export.base = base
			s.export.maxDelay = 8 * base
		}
	}
}

// WithRetrySeed selects the jitter stream (the default derives it from the
// target address, so distinct exporters desynchronize their retries).
func WithRetrySeed(seed uint64) Option {
	return func(s *settings) {
		s.export.seed = seed
		s.export.seedSet = true
	}
}

// WithDialContext replaces the exporter's dialer. This is the seam the
// fault-injection harness (internal/fault) wraps to exercise refused
// dials, mid-stream resets, and slow reads; proxies and test transports
// fit the same slot.
func WithDialContext(dial func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return func(s *settings) {
		if dial != nil {
			s.export.dial = dial
		}
	}
}

// backoffDelay computes the un-jittered delay before retry number attempt:
// base·2^attempt capped at maxDelay. The doubling stops at the cap instead
// of shifting by the raw attempt count, so a large retry budget cannot
// overflow time.Duration into a negative (i.e. zero-length) sleep.
func backoffDelay(base, maxDelay time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if maxDelay <= 0 {
		maxDelay = 8 * base
	}
	delay := base
	for i := 0; i < attempt && delay < maxDelay; i++ {
		delay <<= 1
	}
	if delay > maxDelay {
		delay = maxDelay
	}
	return delay
}

// dialRetry dials addr, retrying per cfg with jittered exponential backoff.
// Backoff sleeps honor context cancellation.
func dialRetry(ctx context.Context, addr string, cfg exportConfig) (net.Conn, error) {
	dial := cfg.dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	jitter := rng.New(cfg.seed)
	var lastErr error
	for attempt := 0; ; attempt++ {
		conn, err := dial(ctx, addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if attempt >= cfg.attempts || ctx.Err() != nil {
			break
		}
		delay := backoffDelay(cfg.base, cfg.maxDelay, attempt)
		// Up to 50% jitter, drawn from a deterministic per-exporter stream.
		delay += time.Duration(jitter.Float64() * 0.5 * float64(delay))
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("collect: dial %s: %w", addr, ctx.Err())
		case <-timer.C:
		}
	}
	return nil, fmt.Errorf("collect: dial %s after %d attempts: %w", addr, cfg.attempts+1, lastErr)
}

// seedFromAddr hashes the target address into a jitter seed (FNV-1a).
func seedFromAddr(addr string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 0x100000001b3
	}
	return h
}

// Export dials a collector and streams the given records over one
// connection, honoring context cancellation between writes. By default the
// dial is attempted once; pass WithDialRetry to survive transient refusals.
func Export(ctx context.Context, addr string, records []probe.Record, opts ...Option) error {
	if len(records) == 0 {
		return ErrNoRecords
	}
	st := defaultSettings()
	for _, o := range opts {
		o(&st)
	}
	cfg := st.export
	if !cfg.seedSet {
		cfg.seed = seedFromAddr(addr)
	}
	conn, err := dialRetry(ctx, addr, cfg)
	if err != nil {
		return err
	}
	defer conn.Close()

	w := probe.NewWriter(conn)
	for i, rec := range records {
		if i%256 == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		if err := w.Write(rec); err != nil {
			return fmt.Errorf("collect: write record %d: %w", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("collect: flush: %w", err)
	}
	return nil
}
