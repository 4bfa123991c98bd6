package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden artifacts")

// TestArtifactsGolden pins every deterministic artifact: the output of
// `roiabench -fig <id>` must be byte-identical to testdata/<id>.txt.
// Regenerate after an intentional change with
//
//	go test ./cmd/roiabench -update
func TestArtifactsGolden(t *testing.T) {
	defer func(fig string) { *figFlag = fig }(*figFlag)
	for _, fig := range []string{"4", "5", "6", "7", "8", "anchors", "profiles", "baselines", "pacing", "speedup"} {
		t.Run(fig, func(t *testing.T) {
			*figFlag = fig
			var buf bytes.Buffer
			if err := run(&buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", fig+".txt")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("-fig %s differs from %s (rerun with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
					fig, golden, buf.String(), want)
			}
		})
	}
}

func TestUnknownFigure(t *testing.T) {
	defer func(fig string) { *figFlag = fig }(*figFlag)
	*figFlag = "nope"
	if err := run(&bytes.Buffer{}); err == nil {
		t.Fatal("unknown -fig accepted")
	}
}
