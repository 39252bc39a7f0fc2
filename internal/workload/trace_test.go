package workload

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

const sampleTrace = `# sample trace: comments and blank lines are skipped
put,user1,64,0
put,user2,128,50

get,user1,0,100
SET,user3,32,150
rmw,user2,64,200
scan,user1,16,250
del,user3,0,300
get , user2 , 0 , 350
`

func TestParseTraceBasic(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceOp{
		{StorePut, "user1", 64, 0},
		{StorePut, "user2", 128, 50 * time.Microsecond},
		{StoreGet, "user1", 0, 100 * time.Microsecond},
		{StorePut, "user3", 32, 150 * time.Microsecond},
		{StoreRMW, "user2", 64, 200 * time.Microsecond},
		{StoreScan, "user1", 16, 250 * time.Microsecond},
		{StoreDelete, "user3", 0, 300 * time.Microsecond},
		{StoreGet, "user2", 0, 350 * time.Microsecond},
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ParseTrace =\n%+v\nwant\n%+v", ops, want)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		name, line string
	}{
		{"too few fields", "get,user1,0"},
		{"too many fields", "get,user1,0,0,0"},
		{"unknown op", "frob,user1,0,0"},
		{"empty key", "get,,0,0"},
		{"bad size", "put,user1,big,0"},
		{"negative size", "put,user1,-8,0"},
		{"bad offset", "get,user1,0,soon"},
		{"negative offset", "get,user1,0,-5"},
	}
	// The batched ops have no single-key trace form: AppendTrace writes
	// them under their own names, and ParseTrace must reject those.
	for _, op := range []StoreOp{StoreMGet, StoreMPut} {
		line := strings.TrimSuffix(string(AppendTrace(nil, []TraceOp{{Op: op, Key: "user1"}})), "\n")
		cases = append(cases, struct{ name, line string }{op.String() + " op", line})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			input := "put,ok,16,0\n" + c.line + "\n"
			if _, err := ParseTrace(strings.NewReader(input)); err == nil {
				t.Fatalf("line %q parsed without error", c.line)
			} else if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("error %q does not name line 2", err)
			}
		})
	}
}

// TestParseTraceDeterministic: the same bytes parse to the same ops —
// the workload-level half of trace-replay determinism (the harness
// half lives in internal/harness).
func TestParseTraceDeterministic(t *testing.T) {
	a, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two parses of the same trace differ")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(string(AppendTrace(nil, ops))))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, back) {
		t.Fatalf("round trip drifted:\n%+v\nwant\n%+v", back, ops)
	}
	// Every op kind: the five with a trace form come back as themselves;
	// the batched two must not come back as some other op.
	for op := StoreOp(0); int(op) < NumStoreOps; op++ {
		one := []TraceOp{{Op: op, Key: "k", Size: 8, Offset: 3 * time.Microsecond}}
		back, err := ParseTrace(strings.NewReader(string(AppendTrace(nil, one))))
		switch op {
		case StoreMGet, StoreMPut:
			if err == nil {
				t.Errorf("%v: AppendTrace wrote a line ParseTrace accepts as %+v", op, back)
			}
		default:
			if err != nil || !reflect.DeepEqual(back, one) {
				t.Errorf("%v: round trip = %+v, %v; want %+v", op, back, err, one)
			}
		}
	}
}

func TestTraceKeys(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	got := TraceKeys(ops)
	want := []string{"user1", "user2", "user3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TraceKeys = %v, want %v", got, want)
	}
}

// FuzzParseTrace: hostile input must error or parse — never panic.
func FuzzParseTrace(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("")
	f.Add("get,user1,0")
	f.Add("frob,user1,0,0")
	f.Add("get,,0,0")
	f.Add("put,k,99999999999999999999,0")
	f.Add("get,k,0,-1\nput,k,16,0")
	f.Add("#only a comment\n\n\n")
	f.Add("get,k,0,0,")
	f.Add(strings.Repeat("x", 4096))
	f.Add("put,\x00\xff,8,1")
	f.Fuzz(func(t *testing.T, input string) {
		ops, err := ParseTrace(strings.NewReader(input))
		if err != nil && ops != nil {
			t.Fatal("non-nil ops alongside error")
		}
		for _, op := range ops {
			if op.Key == "" || op.Size < 0 || op.Offset < 0 {
				t.Fatalf("invalid op passed validation: %+v", op)
			}
		}
	})
}
