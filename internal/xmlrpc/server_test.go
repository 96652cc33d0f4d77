package xmlrpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

func echoHandler(_ context.Context, args []any) (any, error) {
	return args, nil
}

// table is the smallest host Serve needs: a method table, and the fault
// for a name it does not hold.
type table map[string]Handler

func (t table) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	Serve(w, r, func(ctx context.Context, method string, args []any) (any, error) {
		h, ok := t[method]
		if !ok {
			return nil, NewFault(FaultMethodNotFound, "no such method %q", method)
		}
		return h(ctx, args)
	})
}

func newTestServer(t *testing.T) *Client {
	t.Helper()
	srv := httptest.NewServer(table{
		"test.echo": echoHandler,
		"test.add": func(_ context.Context, args []any) (any, error) {
			p := Params(args)
			var a, b int
			if err := p.Want(2); err != nil {
				return nil, err
			}
			if err := p.Into(0, &a); err != nil {
				return nil, err
			}
			if err := p.Into(1, &b); err != nil {
				return nil, err
			}
			return a + b, nil
		},
		"test.fail": func(context.Context, []any) (any, error) {
			return nil, errors.New("boom")
		},
		"test.fault": func(context.Context, []any) (any, error) {
			return nil, NewFault(FaultApplication, "no such plan")
		},
	})
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

func TestEndToEndEcho(t *testing.T) {
	c := newTestServer(t)
	got, err := c.Call(context.Background(), "test.echo", 1, "two", 3.5, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{1, "two", 3.5, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("echo = %#v, want %#v", got, want)
	}
}

func TestEndToEndAdd(t *testing.T) {
	c := newTestServer(t)
	var n int
	if err := c.CallInto(context.Background(), "test.add", &n, 40, 2); err != nil {
		t.Fatal(err)
	}
	if n != 42 {
		t.Fatalf("add = %d, want 42", n)
	}
}

func TestEndToEndMethodNotFound(t *testing.T) {
	c := newTestServer(t)
	_, err := c.Call(context.Background(), "test.nope")
	if !IsFault(err, FaultMethodNotFound) {
		t.Fatalf("error = %v, want method-not-found fault", err)
	}
}

func TestEndToEndInternalFault(t *testing.T) {
	c := newTestServer(t)
	_, err := c.Call(context.Background(), "test.fail")
	f, ok := AsFault(err)
	if !ok || f.Code != FaultInternal || !strings.Contains(f.Message, "boom") {
		t.Fatalf("error = %v, want internal fault wrapping boom", err)
	}
}

func TestEndToEndApplicationFault(t *testing.T) {
	c := newTestServer(t)
	_, err := c.Call(context.Background(), "test.fault")
	if !IsFault(err, FaultApplication) {
		t.Fatalf("error = %v, want application fault", err)
	}
}

func TestEndToEndInvalidParams(t *testing.T) {
	c := newTestServer(t)
	_, err := c.Call(context.Background(), "test.add", 1)
	if !IsFault(err, FaultInvalidParams) {
		t.Fatalf("error = %v, want invalid-params fault", err)
	}
	_, err = c.Call(context.Background(), "test.add", "x", "y")
	if !IsFault(err, FaultInvalidParams) {
		t.Fatalf("error = %v, want invalid-params fault", err)
	}
}

func TestServerRejectsGET(t *testing.T) {
	srv := httptest.NewServer(table{})
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestServerParseFault(t *testing.T) {
	srv := httptest.NewServer(table{})
	defer srv.Close()
	resp, err := http.Post(srv.URL, "text/xml", strings.NewReader("this is not xml"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, derr := DecodeResponse(resp.Body)
	if !IsFault(derr, FaultParse) {
		t.Fatalf("error = %v, want parse fault", derr)
	}
}

func TestConcurrentCalls(t *testing.T) {
	c := newTestServer(t)
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var got int
			if err := c.CallInto(context.Background(), "test.add", &got, i, i); err != nil {
				errs <- err
				return
			}
			if got != 2*i {
				errs <- errors.New("wrong sum")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestParamsAccessors(t *testing.T) {
	p := Params{
		"str", 7, 2.5, true,
		map[string]any{"k": "v"},
		[]any{"a", "b"},
		3.0, // integral double should satisfy int
	}
	var (
		s  string
		n  int
		f  float64
		b  bool
		m  map[string]string
		ss []string
	)
	for i, dst := range []any{&s, &n, &f, &b, &m, &ss} {
		if err := p.Into(i, dst); err != nil {
			t.Errorf("Into(%d, %T): %v", i, dst, err)
		}
	}
	if s != "str" || n != 7 || f != 2.5 || !b || m["k"] != "v" || len(ss) != 2 || ss[1] != "b" {
		t.Errorf("decoded %q %d %v %v %v %v", s, n, f, b, m, ss)
	}
	if err := p.Into(1, &f); err != nil || f != 7.0 {
		t.Errorf("Into(int, *float64) = %v, %v", f, err)
	}
	if err := p.Into(6, &n); err != nil || n != 3 {
		t.Errorf("Into(integral double, *int) = %d, %v", n, err)
	}
	// Type errors.
	if err := p.Into(0, &n); !IsFault(err, FaultInvalidParams) {
		t.Errorf("Into(string, *int) error = %v", err)
	}
	if err := p.Into(99, &s); !IsFault(err, FaultInvalidParams) {
		t.Errorf("Into(oob) error = %v", err)
	}
	if err := p.Into(4, &ss); !IsFault(err, FaultInvalidParams) {
		t.Errorf("Into(struct, *[]string) error = %v", err)
	}
	if err := p.Want(3); !IsFault(err, FaultInvalidParams) {
		t.Errorf("Want(3) on len-7 error = %v", err)
	}
	if err := p.Want(p.Len()); err != nil {
		t.Errorf("Want(Len()) error = %v", err)
	}
}

func TestClientTypedCallErrors(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()
	// test.echo returns an array; every scalar destination must fail cleanly.
	for _, dst := range []any{new(string), new(int), new(bool), new(map[string]any), new(float64)} {
		if err := c.CallInto(ctx, "test.echo", dst, 1); err == nil {
			t.Errorf("CallInto(%T) on array succeeded", dst)
		}
	}
}

func TestServerRejectsOversizedRequest(t *testing.T) {
	srv := httptest.NewServer(table{"big.echo": echoHandler})
	defer srv.Close()
	// A single string argument larger than MaxRequestBytes must produce a
	// parse fault that names the bound, not a success or a hang.
	huge := strings.Repeat("x", MaxRequestBytes+1024)
	raw, err := EncodeRequest("big.echo", []any{huge})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL, "text/xml", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, derr := DecodeResponse(resp.Body)
	if !IsFault(derr, FaultParse) || !strings.Contains(derr.Error(), "request exceeds MaxRequestBytes") {
		t.Fatalf("oversized request error = %v, want a parse fault naming MaxRequestBytes", derr)
	}
}

// The same bound protects the client: it gives up on a response body over
// MaxRequestBytes instead of reading without limit.
func TestClientRejectsOversizedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<methodResponse><params><param><value>"))
		w.Write(bytes.Repeat([]byte("x"), MaxRequestBytes))
		w.Write([]byte("</value></param></params></methodResponse>"))
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	defer c.Close()
	_, err := c.Call(context.Background(), "big.reply")
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxRequestBytes") {
		t.Fatalf("oversized response error = %v, want one naming MaxRequestBytes", err)
	}
}

// A body that fails part way is handed back emptied, not dropped, so the
// pooled buffer Serve and CallInto read into keeps the room it has grown.
func TestReadBodyKeepsBufferOnError(t *testing.T) {
	r := io.MultiReader(strings.NewReader("<methodCall>"), iotest.ErrReader(errors.New("reset")))
	got, err := readBody(r, -1, make([]byte, 0, 4096))
	if err == nil || len(got) != 0 || cap(got) < 4096 {
		t.Fatalf("readBody = len %d cap %d, %v; want an empty buffer of cap >= 4096 and the error", len(got), cap(got), err)
	}
}

// Responses declare their length (net/http would chunk anything over
// 2 KiB), which is what lets the client read into one buffer.
func TestServerDeclaresContentLength(t *testing.T) {
	srv := httptest.NewServer(table{"big.list": func(context.Context, []any) (any, error) {
		return strings.Repeat("y", 10<<10), nil
	}})
	defer srv.Close()
	for _, method := range []string{"big.list", "no.such"} {
		body, err := EncodeRequest(method, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL, "text/xml", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				method, resp.ContentLength, resp.TransferEncoding, len(raw))
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// A program may have put its own round-tripper in http.DefaultTransport;
// NewClient must still hand out a working pool rather than panic.
func TestNewClientWithReplacedDefaultTransport(t *testing.T) {
	srv := httptest.NewServer(table{"test.echo": echoHandler})
	defer srv.Close()
	saved := http.DefaultTransport
	defer func() { http.DefaultTransport = saved }()
	http.DefaultTransport = roundTripFunc(saved.RoundTrip)
	c := NewClient(srv.URL)
	defer c.Close()
	var got []any
	if err := c.CallInto(context.Background(), "test.echo", &got, "hi"); err != nil || len(got) != 1 || got[0] != "hi" {
		t.Fatalf("echo through a fallback transport = %v, %v", got, err)
	}
}
