package serve

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// randomResult fills every field of a core.Result by reflection, so a field
// added to Result later is covered without touching this test. Floats mix
// random bit patterns (NaN payloads included) with the values whose
// formatting is easiest to get wrong.
func randomResult(r *rng.Source) core.Result {
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e21, 1e21 + 1e6, 2.5e300, -1e-300, 5e-324, math.MaxFloat64, 1.0 / 3, 100, 1e20,
	}
	var res core.Result
	v := reflect.ValueOf(&res).Elem()
	var fill func(f reflect.Value)
	fill = func(f reflect.Value) {
		switch f.Kind() {
		case reflect.String:
			const alphabet = " {}:[]azAZ09-\xff\x00"
			b := make([]byte, r.Intn(12))
			for i := range b {
				b[i] = alphabet[r.Intn(len(alphabet))]
			}
			f.SetString(string(b))
		case reflect.Uint64:
			switch r.Intn(3) {
			case 0:
				f.SetUint(uint64(r.Intn(1000)))
			case 1:
				f.SetUint(math.MaxUint64 - uint64(r.Intn(3)))
			default:
				f.SetUint(r.Uint64())
			}
		case reflect.Float64:
			if r.Intn(2) == 0 {
				f.SetFloat(specials[r.Intn(len(specials))])
			} else {
				f.SetFloat(math.Float64frombits(r.Uint64()))
			}
		case reflect.Array:
			for i := 0; i < f.Len(); i++ {
				fill(f.Index(i))
			}
		default:
			panic(fmt.Sprintf("randomResult: no generator for %s", f.Type()))
		}
	}
	for i := 0; i < v.NumField(); i++ {
		fill(v.Field(i))
	}
	return res
}

// The appender must write exactly the bytes fmt's "%+v" writes: those are
// what every recorded digest hashed.
func TestAppendResultMatchesFmt(t *testing.T) {
	r := rng.New(2024)
	for i := 0; i < 20000; i++ {
		res := randomResult(r)
		if got, want := string(appendResult(nil, &res)), fmt.Sprintf("%+v", res); got != want {
			t.Fatalf("appendResult differs from %%+v:\n got %s\nwant %s", got, want)
		}
	}
}

// TestAppendResultCoversEveryField fails when core.Result gains a field the
// appender does not print: setting any one field alone must change the
// text exactly as it changes fmt's.
func TestAppendResultCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(core.Result{})
	for i := 0; i < typ.NumField(); i++ {
		var res core.Result
		f := reflect.ValueOf(&res).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Array:
			f.Index(f.Len() - 1).SetUint(7)
		default:
			t.Fatalf("field %s has kind %s; teach appendResult (and this test) to print it", typ.Field(i).Name, f.Kind())
		}
		if got, want := string(appendResult(nil, &res)), fmt.Sprintf("%+v", res); got != want {
			t.Errorf("field %s: appendResult gives\n%s\nfmt gives\n%s", typ.Field(i).Name, got, want)
		}
	}
}

// TestResultDigestGolden pins the digest of one fixed Result to the value
// earlier builds computed, so checkpoints they wrote keep restoring.
func TestResultDigestGolden(t *testing.T) {
	res := core.Result{
		App: "Server-oltp-primary", Design: "pdede-multi-entry",
		Instructions: 1_000_000, Cycles: 1234567.8125,
		DynBranches: 180000, TakenDyn: 120000, LookupsTaken: 119000,
		BTBMissByClass: [4]uint64{11, 22, 33, 44}, TakenByClass: [4]uint64{1000, 2000, 3000, 4000},
		DirMispredicts: 5, RASMispredicts: 6, ICacheMisses: 7, ICacheAccesses: 8,
		ExtraBTBCycles: 9, DeltaServed: 10, NTRegisterhits: 11, WrongPathFlush: 12,
		BTBResteers: 13, DirResteers: 14, RetResteers: 15,
		BackendCycles: 1e6, FrontendBubbles: 0.1, BTBResteerCycles: 2.5e21,
		DirResteerCycles: math.Copysign(0, -1), RetResteerCycles: 1.0 / 3,
	}
	if got, want := ResultDigest(&res), "344945380df93df4"; got != want {
		t.Fatalf("ResultDigest = %s, want %s", got, want)
	}
}
