package radius

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkEncode measures copying out a representative Access-Request's
// wire image (username, NAS id, hidden password, proxy state).
func BenchmarkEncode(b *testing.B) {
	req := sampleRequest()
	buf := make([]byte, 0, MaxPacketLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := req.AppendEncode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures checking the same packet's attribute list and
// viewing it in place.
func BenchmarkDecode(b *testing.B) {
	wire, err := sampleRequest().Encode()
	if err != nil {
		b.Fatal(err)
	}
	var p Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.DecodeFrom(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHidePassword measures RFC 2865 §5.2 password hiding (the
// per-login keystream computation on both client and server).
func BenchmarkHidePassword(b *testing.B) {
	secret := []byte("s3cret")
	var auth [16]byte
	copy(auth[:], "0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := HidePassword("123456", secret, auth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDedupSteadyState measures one reserve + finish of a fresh
// request on a table holding a steady live population, with one
// reservation expiring per operation (an injected clock advances one
// window per population). ns/op must not grow with the population.
func BenchmarkDedupSteadyState(b *testing.B) {
	for _, live := range []int{1000, 16000, 64000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			now := time.Unix(1000, 0)
			tab := newDedupTable(dedupWindow, maxDedupEntries, func() time.Time { return now })
			step := dedupWindow / time.Duration(live)
			i := 0
			op := func() {
				seq, _ := tab.reserve(seqKey(i))
				tab.finish(seq, nil)
				i++
				now = now.Add(step)
			}
			for i < 2*live {
				op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				op()
			}
		})
	}
}

// BenchmarkExchange measures a full client/server UDP round trip on
// loopback: encode, Message-Authenticator, dedup reservation, handler,
// response signing, verification.
func BenchmarkExchange(b *testing.B) {
	secret := []byte("bench-secret")
	var handled int64
	srv := &Server{
		Secret: secret,
		Handler: HandlerFunc(func(reply *Packet, req *Request) bool {
			atomic.AddInt64(&handled, 1)
			reply.Code = AccessAccept
			reply.AddString(AttrReplyMessage, "ok")
			return true
		}),
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr().String(), Secret: secret, Timeout: 5 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := NewRequest(0)
		req.AddString(AttrUserName, "alice")
		hidden, err := HidePassword("123456", secret, req.Authenticator)
		if err != nil {
			b.Fatal(err)
		}
		req.Add(AttrUserPassword, hidden)
		resp, err := c.Exchange(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Code != AccessAccept {
			b.Fatalf("code = %v", resp.Code)
		}
	}
}
