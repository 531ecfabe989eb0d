package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden holds the example's output, which is the same
// at every GOMAXPROCS, to the checked-in copy. After an intended change,
// regenerate it with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/quickstart.golden
func TestOutputMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/quickstart.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/quickstart.golden\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
