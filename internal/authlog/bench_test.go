package authlog

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkAuthlogScan measures FindPubkeySuccess, the query the pubkey
// PAM module runs on every login. The ring is filled to capacity with
// in-window pubkey successes; the lookup is keyed, so hit and miss should
// cost the same at every ring size.
func BenchmarkAuthlogScan(b *testing.B) {
	for _, size := range []int{1024, 16384, 65536} {
		b.Run(fmt.Sprintf("ring%d", size), func(b *testing.B) {
			l, err := New("", size)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			now := time.Date(2016, 10, 4, 8, 0, 0, 0, time.UTC)
			for i := 0; i < size; i++ {
				l.Append(Event{
					Time: now.Add(-time.Duration(i) * time.Millisecond),
					Type: AcceptedPublickey,
					User: fmt.Sprintf("user%04d", i%500),
					Addr: fmt.Sprintf("73.1.%d.%d", i%200, i%250),
				})
			}
			b.Run("hit-newest", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if !l.FindPubkeySuccess("user0000", "", now, 5*time.Minute) {
						b.Fatal("expected hit")
					}
				}
			})
			b.Run("miss-full-window", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if l.FindPubkeySuccess("nosuch", "", now, 5*time.Minute) {
						b.Fatal("unexpected hit")
					}
				}
			})
		})
	}
}
