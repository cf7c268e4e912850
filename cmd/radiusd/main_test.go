package main

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"openmfa/internal/leakcheck"
	"openmfa/internal/radius"
)

// TestFlagSurface pins the daemon's flag names, so a re-added tuning knob
// fails here rather than shipping.
func TestFlagSurface(t *testing.T) {
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	want := []string{"fault-corrupt", "fault-delay", "fault-drop", "fault-dup", "fault-jitter", "fault-seed",
		"flightrec-dir", "listen", "obs-addr", "prof-dir", "secret", "slo", "timeout", "upstream", "upstream-secret"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("radiusd flags = %v\nwant %v", got, want)
	}
}

// freeAddr reserves and releases a loopback port of the given network.
func freeAddr(t *testing.T, network string) string {
	t.Helper()
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.LocalAddr().String()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestFaultFreeProxyCountsSpoofedUpstreamReplies runs the daemon as
// shipped, with no -fault-* flag: a forged upstream reply is silently
// discarded (RFC 2865 §3), the genuine one still answers the NAS, the
// discard shows on /metrics, and cancelling ctx shuts everything down.
func TestFaultFreeProxyCountsSpoofedUpstreamReplies(t *testing.T) {
	leakcheck.Check(t)
	upSecret := []byte("up-secret")
	up, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	// Fake upstream: a forged Access-Accept (right Identifier, garbage
	// authenticator), then the correctly signed one.
	go func() {
		buf := make([]byte, radius.MaxPacketLen)
		up.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, client, err := up.ReadFromUDP(buf)
		if err != nil {
			return
		}
		req, err := radius.Decode(buf[:n])
		if err != nil {
			return
		}
		forged := &radius.Packet{Code: radius.AccessAccept, Identifier: req.Identifier}
		copy(forged.Authenticator[:], "not-a-real-authentic")
		wire, _ := forged.Encode()
		up.WriteToUDP(wire, client)

		genuine := &radius.Packet{Code: radius.AccessAccept, Identifier: req.Identifier, Authenticator: req.Authenticator}
		if radius.AddMessageAuthenticator(genuine, upSecret) != nil {
			return
		}
		genuine.Authenticator = [16]byte{}
		if radius.SignResponse(genuine, req.Authenticator, upSecret) != nil {
			return
		}
		wire, _ = genuine.Encode()
		up.WriteToUDP(wire, client)
	}()

	listenAddr, opsAddr := freeAddr(t, "udp"), freeAddr(t, "tcp")
	for name, value := range map[string]string{
		"listen": listenAddr, "obs-addr": opsAddr, "secret": "nas-secret",
		"upstream": up.LocalAddr().String(), "upstream-secret": string(upSecret),
	} {
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()

	scrape := func(path string) (string, error) {
		resp, err := http.Get("http://" + opsAddr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := scrape("/healthz"); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("ops listener never came up")
		}
	}

	nas := &radius.Client{Addr: listenAddr, Secret: []byte("nas-secret"), Timeout: 5 * time.Second, Retries: radius.NoRetry}
	req := radius.NewRequest(0)
	req.AddString(radius.AttrUserName, "u")
	resp, err := nas.Exchange(req)
	if err != nil || resp.Code != radius.AccessAccept {
		t.Fatalf("proxied exchange = %v, %v; want Access-Accept", resp, err)
	}
	page, err := scrape("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if want := `radius_client_discards_total{reason="bad_authenticator"} 1`; !strings.Contains(page, want) {
		t.Errorf("/metrics lacks %s", want)
	}

	http.DefaultClient.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after cancel = %v, want nil", err)
	}
}
