package xqgo_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xqgo"
	"xqgo/internal/service"
)

// lockedBuffer is a log sink the server's goroutines write to.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestStreamedFailureTrailers: a streamed /query that fails after its first
// byte answers 200 with the body cut where the result stopped, and carries
// the failure in the Xq-Error-Code and Xq-Error trailers — the code the
// same request's non-streamed error body carries. This holds for a dynamic
// error, an exceeded result cap and an exceeded deadline, on the JSON form
// with "stream": true and on the XML-body form in stream and store mode.
// No JSON reaches an XML body, /metrics counts each such failure, and the
// server never logs a superfluous WriteHeader.
func TestStreamedFailureTrailers(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logged lockedBuffer
	srv := &http.Server{Handler: service.NewHTTPHandler(svc), ErrorLog: log.New(&logged, "", 0)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	base := "http://" + ln.Addr().String()

	doc := "<r>" + strings.Repeat("<x>1</x>", 5000) + "<x>0</x></r>"
	if _, err := svc.Catalog.Register("ones", strings.NewReader(doc), xqgo.ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, query string
		maxBytes    int64
		timeoutMs   int64
		code        string
	}{
		{"dynamic error", `for $x in /r/x return <y>{1 idiv xs:integer($x)}</y>`, 0, 0, "FOAR0001"},
		{"result cap", `for $x in /r/x return <y>{string($x)}</y>`, 20000, 0, service.CodeResultTooLarge},
		{"deadline", `(/r/x, sum(for $i in 1 to 2000000000 return $i mod 7))`, 0, 300, service.CodeTimeout},
	}
	streamed := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := map[string]any{"query": c.query, "doc": "ones", "maxResultBytes": c.maxBytes, "timeoutMs": c.timeoutMs}
			resp, out := postJSON(t, base+"/query", body)
			var qr queryResp
			if err := json.Unmarshal(out, &qr); err != nil {
				t.Fatalf("non-streamed: %v: %s", err, out)
			}
			if resp.StatusCode < 400 || qr.Code != c.code {
				t.Fatalf("non-streamed: status %d, code %q; want a 4xx/5xx with code %q", resp.StatusCode, qr.Code, c.code)
			}

			body["stream"] = true
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			checkTruncated(t, "JSON form", base+"/query", "application/json", data, c.code)
			streamed++
			qs := url.Values{"query": {c.query}}
			if c.maxBytes > 0 {
				qs.Set("maxResultBytes", strconv.FormatInt(c.maxBytes, 10))
			}
			if c.timeoutMs > 0 {
				qs.Set("timeoutMs", strconv.FormatInt(c.timeoutMs, 10))
			}
			checkTruncated(t, "XML body, stream mode", base+"/query?"+qs.Encode(), "application/xml", []byte(doc), c.code)
			streamed++
			qs.Set("mode", "store")
			checkTruncated(t, "XML body, store mode", base+"/query?"+qs.Encode(), "application/xml", []byte(doc), c.code)
			streamed++
		})
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := "xqd_truncated_responses_total " + strconv.Itoa(streamed) + "\n"; !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics lacks %q", want)
	}
	if strings.Contains(logged.String(), "superfluous") {
		t.Errorf("the server logged:\n%s", logged.String())
	}
}

// checkTruncated posts a streamed request and requires a 200 whose XML body
// began and then stopped, with code in the Xq-Error-Code trailer. A request
// whose body is the XML input must also close its connection: the engine
// may still be reading that body when the response ends.
func checkTruncated(t *testing.T, what, u, contentType string, body []byte, code string) {
	t.Helper()
	resp, err := http.Post(u, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType == "application/xml" && !resp.Close {
		t.Errorf("%s: the response keeps the connection alive", what)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		t.Errorf("%s: status %d, want 200 (the failure comes after the first byte): %.200s", what, resp.StatusCode, out)
	case !bytes.HasPrefix(out, []byte("<")) || bytes.ContainsAny(out, "{}"):
		t.Errorf("%s: the body is not a cut XML result: %.200s ... %.200s", what, out, out[max(0, len(out)-200):])
	case resp.Trailer.Get("Xq-Error-Code") != code || resp.Trailer.Get("Xq-Error") == "":
		t.Errorf("%s: trailers %v, want Xq-Error-Code %q and a message", what, resp.Trailer, code)
	}
}
