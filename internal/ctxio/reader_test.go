package ctxio

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"xqgo/internal/leakcheck"
)

func TestReaderDeliversEveryByte(t *testing.T) {
	leakcheck.Check(t)
	want := make([]byte, 5*chunkSize+123)
	rand.New(rand.NewSource(1)).Read(want)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, src := range map[string]io.Reader{
		"plain":    bytes.NewReader(want),
		"one-byte": iotest.OneByteReader(bytes.NewReader(want)),
		"data+EOF": iotest.DataErrReader(bytes.NewReader(want)),
	} {
		var got bytes.Buffer
		// Odd-sized reads cross the chunk boundaries at every offset.
		if _, err := io.CopyBuffer(&got, NewReader(ctx, src), make([]byte, 4099)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: %d bytes read, differ from the %d written", name, got.Len(), len(want))
		}
	}
}

func TestReaderUnblocksOnCancel(t *testing.T) {
	leakcheck.Check(t)
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	r := NewReader(ctx, pr)
	go func() {
		pw.Write([]byte("head"))
		time.Sleep(20 * time.Millisecond) // the producer goes quiet; Read below is parked
		cancel()
	}()
	buf := make([]byte, 16)
	if n, err := r.Read(buf); err != nil || string(buf[:n]) != "head" {
		t.Fatalf("first read = %q, %v", buf[:n], err)
	}
	if _, err := r.Read(buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked read returned %v, want context.Canceled", err)
	}
	if _, err := r.Read(buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel returned %v, want context.Canceled", err)
	}
	pw.Close() // the owner closes the producer; the pump's pending Read returns
}

// An execution may stop reading before EOF under a context nobody cancels;
// the pump must not outlive the Reader.
func TestAbandonedReaderStopsItsPump(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	func() {
		r := NewReader(ctx, bytes.NewReader(make([]byte, 4*chunkSize)))
		if _, err := r.Read(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
	}()
	base := leakcheck.Count()
	for deadline := time.Now().Add(5 * time.Second); leakcheck.Count() >= base && base > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("pump still running after its Reader was dropped")
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}
