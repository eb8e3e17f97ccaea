package bgp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestQuickMRTNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, err := ReadMRT(bytes.NewReader(data))
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
