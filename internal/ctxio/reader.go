// Package ctxio makes blocking reads observe a context. The engine reads XML
// from producers it does not control (request bodies, live feeds): a deadline
// or a shutdown must end an execution that is parked in Read on a producer
// sending nothing.
package ctxio

import (
	"context"
	"io"
	"runtime"
)

// chunkSize is the size of each of a Reader's two buffers.
const chunkSize = 32 << 10

// Reader reads from an underlying reader on one pump goroutine, so that Read
// returns the context's error as soon as the context is done instead of
// waiting for the producer. The pump reads ahead by at most one chunk, into
// two buffers it alternates between, and hands each chunk over only when
// Read asks for it; a chunk that arrives after Read gave up on a canceled
// context is dropped with the stream, which has failed by then.
//
// The pump starts at the first Read and ends when the underlying reader
// reports an error or EOF, when the context is done, or when the Reader is
// garbage collected (an execution may stop reading before EOF without its
// context ever being canceled). A pump blocked inside the underlying Read
// ends when that call returns, so the producer's owner must still close it.
// Not safe for concurrent use.
type Reader struct {
	p   *pump
	rem []byte // unread part of the chunk last taken from the pump
	err error  // sticky: the underlying reader's error or the context's
}

// pump is the state the goroutine shares with its Reader. It must not point
// back to the Reader, whose collection is one of the stop signals.
type pump struct {
	ctx    context.Context
	r      io.Reader
	chunks chan chunk    // unbuffered: a hand-over means Read took the chunk
	stop   chan struct{} // closed when the Reader is collected
}

type chunk struct {
	data []byte
	err  error
}

// NewReader wraps r. A ctx that can never be canceled needs no wrapper;
// callers check ctx.Done() != nil first.
func NewReader(ctx context.Context, r io.Reader) *Reader {
	return &Reader{p: &pump{ctx: ctx, r: r}}
}

func (c *Reader) Read(b []byte) (int, error) {
	for len(c.rem) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		if c.err = c.p.ctx.Err(); c.err != nil {
			return 0, c.err
		}
		if c.p.chunks == nil {
			c.p.chunks = make(chan chunk)
			c.p.stop = make(chan struct{})
			runtime.SetFinalizer(c, func(c *Reader) { close(c.p.stop) })
			go c.p.run()
		}
		select {
		case ch := <-c.p.chunks:
			c.rem, c.err = ch.data, ch.err
		case <-c.p.ctx.Done():
			c.err = c.p.ctx.Err()
			return 0, c.err
		}
	}
	n := copy(b, c.rem)
	c.rem = c.rem[n:]
	return n, nil
}

// run reads chunk after chunk. While Read drains one buffer the next read
// fills the other; the hand-over that follows blocks until Read has used up
// the first, so a buffer is never written while it is being read.
func (p *pump) run() {
	var bufs [2][chunkSize]byte
	for i := 0; ; i ^= 1 {
		n, err := p.r.Read(bufs[i][:])
		select {
		case p.chunks <- chunk{data: bufs[i][:n], err: err}:
			if err != nil {
				return
			}
		case <-p.ctx.Done():
			return
		case <-p.stop:
			return
		}
	}
}
