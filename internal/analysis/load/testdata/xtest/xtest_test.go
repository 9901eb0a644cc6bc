package xtest_test

import (
	"testing"

	"xtest"
)

func TestHidden(t *testing.T) {
	if xtest.Hidden() != xtest.Shown() {
		t.Fail()
	}
}
