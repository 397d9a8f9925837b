package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"

	"seqbist/internal/atpg"
	"seqbist/internal/faults"
	"seqbist/internal/fsim"
	"seqbist/internal/iscas"
	"seqbist/internal/tcompact"
	"seqbist/internal/vectors"
)

// The proc2-s5378 workload's T0: ATPG with these settings, then T0
// compaction. Producing it costs most of a minute, so it is generated once
// with -make-t0, committed under data/, and hash-checked on every load.
const (
	t0Circuit  = "s5378"
	t0Seed     = 1
	t0MaxLen   = 1500
	t0Path     = "perfbench/data/s5378-t0.txt"
	t0SHA256   = "00ddc007b013f234e137b652df05955cb20c763132f917aff39f361c4c132e1c"
	t0Vectors  = 1147
	t0Detected = 4097
)

// makeT0 regenerates the committed T0 file and prints its hash; the
// constants above must then be updated to match.
func makeT0() error {
	c, err := iscas.Load(t0Circuit)
	if err != nil {
		return err
	}
	fl := faults.CollapsedUniverse(c)
	gen, err := atpg.Generate(c, fl, atpg.Config{Seed: t0Seed, MaxLen: t0MaxLen})
	if err != nil {
		return fmt.Errorf("atpg: %w", err)
	}
	t0, _ := tcompact.Compact(c, fl, gen.Seq)
	det := fsim.Run(c, fl, t0).NumDetected
	text := formatT0(t0)
	if err := os.WriteFile(t0Path, []byte(text), 0o644); err != nil {
		return err
	}
	sum := sha256.Sum256([]byte(text))
	fmt.Printf("%s: %d vectors, detects %d of %d faults, sha256 %s\n",
		t0Path, t0.Len(), det, len(fl), hex.EncodeToString(sum[:]))
	return nil
}

// formatT0 writes one vector per line.
func formatT0(t0 vectors.Sequence) string {
	var sb strings.Builder
	for _, v := range t0 {
		sb.WriteString(v.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
