package memnet

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func newTestUniverse() *Universe {
	u := NewUniverse()
	u.HandleFunc("www.pub.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html>page %s on %s</html>", r.URL.Path, r.Host)
	})
	u.HandleFunc("redirect.example.com", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "http://www.pub.example.com/landed", http.StatusFound)
	})
	u.HandleFunc("error.example.com", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusForbidden)
	})
	return u
}

func TestInMemoryTransport(t *testing.T) {
	u := newTestUniverse()
	client := Client(u)

	resp, err := client.Get("http://www.pub.example.com/index")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "page /index on www.pub.example.com") {
		t.Fatalf("body = %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html" {
		t.Fatalf("content type = %q", ct)
	}
}

func TestRedirectNotFollowed(t *testing.T) {
	u := newTestUniverse()
	client := Client(u)
	resp, err := client.Get("http://redirect.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d, want 302 (redirects must be observable)", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://www.pub.example.com/landed" {
		t.Fatalf("location = %q", loc)
	}
}

func TestNXDomain(t *testing.T) {
	u := newTestUniverse()
	client := Client(u)
	_, err := client.Get("http://no-such-host.example.net/")
	if err == nil {
		t.Fatal("expected NXDOMAIN error")
	}
	if !strings.Contains(err.Error(), "no such host") {
		t.Fatalf("err = %v", err)
	}
}

func TestFallbackHandler(t *testing.T) {
	u := newTestUniverse()
	u.SetFallback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "parked")
	}))
	client := Client(u)
	resp, err := client.Get("http://anything.example.org/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "parked" {
		t.Fatalf("body = %q", body)
	}
}

func TestErrorStatus(t *testing.T) {
	u := newTestUniverse()
	client := Client(u)
	resp, err := client.Get("http://error.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHostCaseInsensitive(t *testing.T) {
	u := newTestUniverse()
	client := Client(u)
	resp, err := client.Get("http://WWW.PUB.EXAMPLE.COM/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHandleReplace(t *testing.T) {
	u := NewUniverse()
	u.HandleFunc("h.example.com", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "one")
	})
	u.HandleFunc("h.example.com", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "two")
	})
	resp, err := Client(u).Get("http://h.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "two" {
		t.Fatalf("body = %q", body)
	}
}

func TestHostsListing(t *testing.T) {
	u := newTestUniverse()
	hosts := u.Hosts()
	if len(hosts) != 3 {
		t.Fatalf("hosts = %v", hosts)
	}
}

func TestQueryAndHeaders(t *testing.T) {
	u := NewUniverse()
	u.HandleFunc("echo.example.com", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "q=%s ref=%s", r.URL.Query().Get("q"), r.Header.Get("Referer"))
	})
	req, _ := http.NewRequest("GET", "http://echo.example.com/search?q=ads", nil)
	req.Header.Set("Referer", "http://www.pub.example.com/")
	resp, err := Client(u).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "q=ads ref=http://www.pub.example.com/" {
		t.Fatalf("body = %q", body)
	}
}

func TestRealTCPServer(t *testing.T) {
	u := newTestUniverse()
	srv, err := StartServer(u)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := srv.TCPClient()
	resp, err := client.Get("http://www.pub.example.com/over-tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "page /over-tcp on www.pub.example.com") {
		t.Fatalf("body = %q", body)
	}

	// Unknown host over TCP yields 502, not a transport error.
	resp2, err := client.Get("http://ghost.example.net/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp2.StatusCode)
	}
}

func TestTCPRedirectObservable(t *testing.T) {
	u := newTestUniverse()
	srv, err := StartServer(u)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := srv.TCPClient().Get("http://redirect.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestConcurrentRequests(t *testing.T) {
	u := newTestUniverse()
	client := Client(u)
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(n int) {
			resp, err := client.Get(fmt.Sprintf("http://www.pub.example.com/p%d", n))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- err
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestStripPort(t *testing.T) {
	u := newTestUniverse()
	if u.Lookup("www.pub.example.com:8080") == nil {
		t.Fatal("port should be stripped in lookup")
	}
}

// TestBodyBytesIsUnreadRemainder pins Body.Bytes to the bytes a Read would
// still return, so a layer that takes the body in place after another has
// started reading it sees the same bytes a reader would.
func TestBodyBytesIsUnreadRemainder(t *testing.T) {
	resp, err := Client(newTestUniverse()).Get("http://www.pub.example.com/x")
	if err != nil {
		t.Fatal(err)
	}
	body, ok := resp.Body.(*Body)
	if !ok {
		t.Fatalf("memnet body is %T, want *Body", resp.Body)
	}
	var head [6]byte
	if _, err := io.ReadFull(body, head[:]); err != nil {
		t.Fatal(err)
	}
	rest := string(body.Bytes())
	if got, _ := io.ReadAll(body); string(got) != rest || string(head[:])+rest != "<html>page /x on www.pub.example.com</html>" {
		t.Fatalf("Bytes = %q after reading %q; a Read returned %q", rest, head, got)
	}
}
