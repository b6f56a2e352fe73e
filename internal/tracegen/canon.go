package tracegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
)

// Canon accumulates a canonical byte encoding of a parameter set and seals
// it into a SHA-256 hex digest. It is the content-addressing scheme behind
// Key, exported so other caches (the dmpd result cache keys whole scenario
// specs) share one canonical hashing discipline: every field is folded by
// name, floats as exact IEEE-754 bit patterns, so two semantically equal
// parameter sets always collide and a reordered struct never splits
// entries.
type Canon struct {
	b strings.Builder
}

// NewCanon starts a canonical encoding under a domain label ("tracegen/v2").
// Distinct domains can never collide, whatever their fields.
func NewCanon(domain string) *Canon {
	c := &Canon{}
	c.b.WriteString(domain)
	c.b.WriteString("|")
	return c
}

// Str folds a name=string field.
func (c *Canon) Str(name, v string) {
	fmt.Fprintf(&c.b, "%s=%s|", name, v)
}

// Int folds a name=integer field.
func (c *Canon) Int(name string, v int64) {
	fmt.Fprintf(&c.b, "%s=%d|", name, v)
}

// Float folds a float64 as its exact bit pattern, so -0.0, denormals, and
// NaN payloads all key distinctly and no formatting round-trip is involved.
func (c *Canon) Float(name string, v float64) {
	fmt.Fprintf(&c.b, "%s=%016x|", name, math.Float64bits(v))
}

// Struct folds every field of a flat numeric struct (the workload
// parameterisations) into the encoding, by field name so the key survives
// field reordering and new fields cannot be forgotten. Floats are folded as
// exact bit patterns. Non-numeric fields panic: the canonical scheme only
// defines an encoding for flat numeric parameter blocks.
func (c *Canon) Struct(s any) {
	v := reflect.ValueOf(s)
	t := v.Type()
	fmt.Fprintf(&c.b, "%s{", t.Name())
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			c.Float(t.Field(i).Name, f.Float())
		case reflect.Int, reflect.Int64:
			c.Int(t.Field(i).Name, f.Int())
		default:
			panic(fmt.Sprintf("tracegen: unhashable field %s.%s (%s)",
				t.Name(), t.Field(i).Name, f.Kind()))
		}
	}
	c.b.WriteString("}")
}

// Sum seals the encoding into a lowercase SHA-256 hex digest.
func (c *Canon) Sum() string {
	sum := sha256.Sum256([]byte(c.b.String()))
	return hex.EncodeToString(sum[:])
}
