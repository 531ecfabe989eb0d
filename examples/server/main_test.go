package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputMatchesGolden runs the example against a fresh data directory
// and holds its output, which is the same at every GOMAXPROCS, to the
// checked-in copy: the pipeline run over HTTP, the artifact, the restart
// and the recovered range query. After an intended change, regenerate it
// with
//
//	go run ./examples/server > examples/server/testdata/server.golden
func TestOutputMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/server.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/server.golden\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
