// Package covered is a fingerprintcover negative fixture: every Spec
// field is hashed (directly or through a transitively called helper)
// or explicitly excluded.
package covered

import (
	"strconv"
	"strings"
)

type Spec struct {
	Kind     string
	Seed     uint64
	Rounds   int
	GraphKey string
	Delta    float64

	LogEvery int
	progress func(int)
}

var fingerprintExcluded = []string{
	"LogEvery", // observational logging cadence
	"progress", // callback, never feeds a result
}

func (s *Spec) Fingerprint() string {
	var b strings.Builder
	b.WriteString(s.Kind)
	b.WriteString(strconv.FormatUint(s.Seed, 10))
	b.WriteString(strconv.Itoa(s.Rounds))
	b.WriteString(s.graphIdentity())
	b.WriteString(strconv.FormatFloat(s.delta(), 'g', -1, 64))
	return b.String()
}

// graphIdentity covers GraphKey one call deep.
func (s *Spec) graphIdentity() string { return "key:" + s.GraphKey }

// delta covers Delta one call deep.
func (s *Spec) delta() float64 {
	if s.Delta == 0 {
		return 0.05
	}
	return s.Delta
}
