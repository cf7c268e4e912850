package otp

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"hash"
	"math"
	"sync"
	"testing"
)

// hmacValue is the RFC 4226 reference the Generator must equal: a keyed
// crypto/hmac state, then dynamic truncation.
func hmacValue(secret []byte, counter uint64, digits Digits, alg Algorithm) uint32 {
	newHash := map[Algorithm]func() hash.Hash{SHA1: sha1.New, SHA256: sha256.New, SHA512: sha512.New}[alg]
	mac := hmac.New(newHash, secret)
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], counter)
	mac.Write(ctr[:])
	sum := mac.Sum(nil)
	offset := sum[len(sum)-1] & 0x0f
	return (binary.BigEndian.Uint32(sum[offset:]) & 0x7fffffff) % pow10[digits]
}

// TestGeneratorMatchesHMAC pins the saved-state HMAC to crypto/hmac across
// the RFC 2104 key cases for every algorithm: keys shorter than, equal to
// and longer than the 64-byte (SHA-1/256) and 128-byte (SHA-512) blocks,
// the longer ones hashed first.
func TestGeneratorMatchesHMAC(t *testing.T) {
	counters := []uint64{0, 1, 59, 1 << 31, 1111111109, 0xdeadbeefcafe, math.MaxUint64}
	for _, alg := range []Algorithm{SHA1, SHA256, SHA512} {
		for _, n := range []int{1, 20, 64, 65, 128, 129, 200} {
			secret := make([]byte, n)
			for i := range secret {
				secret[i] = byte(i*31 + n)
			}
			g, err := NewGenerator(secret, EightDigits, alg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range counters {
				if got, want := g.Value(c), hmacValue(secret, c, EightDigits, alg); got != want {
					t.Errorf("alg=%v key=%dB counter=%d: Value %d, crypto/hmac %d", alg, n, c, got, want)
				}
			}
		}
	}
}

// FuzzGeneratorMatchesHMAC extends the table to arbitrary keys and
// counters: every value equals crypto/hmac's.
func FuzzGeneratorMatchesHMAC(f *testing.F) {
	for _, n := range []int{1, 20, 64, 65, 128, 129, 200} {
		f.Add(bytes.Repeat([]byte{0xa5}, n), uint64(n), uint8(n))
	}
	f.Fuzz(func(t *testing.T, secret []byte, counter uint64, alg uint8) {
		a := Algorithm(alg % 3)
		g, err := NewGenerator(secret, Digits(9), a)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.Value(counter), hmacValue(secret, counter, Digits(9), a); got != want {
			t.Fatalf("alg=%v key=%x counter=%d: Value %d, crypto/hmac %d", a, secret, counter, got, want)
		}
	})
}

// TestGeneratorPoolConcurrent runs one-shot codes and window scans for
// distinct keys and algorithms from several goroutines at once: each must
// see only its own key's states, whichever pooled hash it was handed.
func TestGeneratorPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			alg := Algorithm(w % 3)
			secret := bytes.Repeat([]byte{byte(w + 1)}, 20+w*20)
			for c := uint64(0); c < 300; c++ {
				code, err := HOTP(secret, c, SixDigits, alg)
				if err != nil {
					t.Error(err)
					return
				}
				if want := SixDigits.Format(hmacValue(secret, c, SixDigits, alg)); code != want {
					t.Errorf("worker %d counter %d: HOTP %s, crypto/hmac %s", w, c, code, want)
					return
				}
				if got, ok := ValidateHOTP(secret, code, c-min(c, 3), 3, SixDigits, alg); !ok || got != c {
					t.Errorf("worker %d counter %d: ValidateHOTP = %d, %v", w, c, got, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
