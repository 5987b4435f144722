package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxClients is the closed-loop client count on a machine with at least two
// cores; with GOMAXPROCS=1 a single client runs.
const maxClients = 2

// client is one closed-loop caller: a single keep-alive connection on which
// the next request is sent only after the previous reply has been read in
// full and checked.
type client struct {
	base string
	http *http.Client
	body bytes.Buffer // the last response body
	send []byte       // request copy of an op whose literal is patched
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is the outcome of one request. err is set when the request failed:
// a status other than 2xx, a truncated stream, or a body that does not match
// the expected result.
type reply struct {
	latency time.Duration // first request byte written to last response byte read
	ttfb    time.Duration // first request byte written to first response body byte
	err     error
}

var contentTypes = [numOpKinds]string{
	opQuery: "application/json", opQueryStream: "application/json",
	opBodyQuery: "application/xml", opSubscribe: "application/xml", opPut: "application/xml",
}

// do sends one op and checks the reply against o.want when that is filled.
func (c *client) do(o *op) reply {
	body := o.body
	if o.literal != 0 {
		c.send = append(c.send[:0], o.body...)
		strconv.AppendInt(c.send[o.literalAt:o.literalAt], o.literal, 10)
		body = c.send
	}
	method := http.MethodPost
	if o.kind == opPut {
		method = http.MethodPut
	}
	req, err := http.NewRequest(method, c.base+o.path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", contentTypes[o.kind])

	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{err: err}
	}
	first, err := c.readBody(resp.Body)
	end := time.Now()
	resp.Body.Close()
	r := reply{latency: end.Sub(start), ttfb: first.Sub(start)}
	switch {
	case err != nil:
		r.err = fmt.Errorf("reading response: %w", err)
	case resp.StatusCode/100 != 2:
		r.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, c.body.Bytes())
	default:
		r.err = c.check(o)
	}
	return r
}

// readBody reads the response into c.body and returns when its first byte
// arrived.
func (c *client) readBody(r io.Reader) (first time.Time, err error) {
	c.body.Reset()
	var one [1]byte
	n, err := io.ReadFull(r, one[:])
	first = time.Now()
	if n == 1 {
		c.body.WriteByte(one[0])
		_, err = c.body.ReadFrom(r)
	} else if errors.Is(err, io.EOF) {
		err = nil // an empty body is a body
	}
	return first, err
}

// check compares the response in c.body with what the op's oracle expects.
func (c *client) check(o *op) error {
	switch o.kind {
	case opPut:
		var info struct{ Bytes int }
		if err := json.Unmarshal(c.body.Bytes(), &info); err != nil {
			return fmt.Errorf("document info: %w", err)
		}
		if info.Bytes != len(o.body) {
			return fmt.Errorf("document registered with %d bytes, sent %d", info.Bytes, len(o.body))
		}
		return nil
	case opQuery:
		var res struct{ Result *string }
		if err := json.Unmarshal(c.body.Bytes(), &res); err != nil || res.Result == nil {
			return fmt.Errorf("query response %.100q: %v", c.body.Bytes(), err)
		}
		return o.match(*res.Result)
	case opQueryStream, opBodyQuery:
		return o.match(c.body.String())
	default:
		return o.matchEvents(&c.body)
	}
}

// match compares a serialized result with the expected one. Set-up requests
// are sent before the oracle ran and only need a 2xx.
func (o *op) match(got string) error {
	if !o.want.ready {
		return nil
	}
	want := o.want.result
	if o.literal != 0 {
		want += strconv.FormatInt(o.literal, 10)
	}
	if got != want {
		return fmt.Errorf("wrong result for %.60q: got %d bytes %.80q, want %d bytes %.80q",
			o.query, len(got), got, len(want), want)
	}
	return nil
}

// matchEvents reads a Server-Sent Events stream: every result event must be
// the next expected item of its subscription, no error event may occur, and
// the stream must close with the end event after every item has arrived.
func (o *op) matchEvents(r io.Reader) error {
	check := o.want.ready
	seen := make([]int, len(o.queries))
	ended := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	event := ""
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			switch event {
			case "result":
				var res struct {
					Sub int
					XML string
				}
				if err := json.Unmarshal(data, &res); err != nil || res.Sub < 0 || res.Sub >= len(seen) {
					return fmt.Errorf("result event %.100q: %v", data, err)
				}
				k := seen[res.Sub]
				seen[res.Sub]++
				if !check {
					continue
				}
				if want := o.want.items[res.Sub]; k >= len(want) || want[k] != res.XML {
					return fmt.Errorf("subscription %d item %d: got %.80q, expected %d items", res.Sub, k, res.XML, len(want))
				}
			case "error", "goodbye":
				return fmt.Errorf("%s event: %.200s", event, data)
			case "end":
				ended = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !ended {
		return errors.New("feed closed without an end event")
	}
	if check {
		for i, want := range o.want.items {
			if seen[i] != len(want) {
				return fmt.Errorf("subscription %d delivered %d items, expected %d", i, seen[i], len(want))
			}
		}
	}
	return nil
}
