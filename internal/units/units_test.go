package units

import (
	"math"
	"testing"
	"testing/quick"
)

// approxEqual reports whether a and b differ by at most tol.
func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDBmToMilliwatts(t *testing.T) {
	tests := []struct {
		name string
		dbm  float64
		want float64
	}{
		{"zero dBm is one mW", 0, 1},
		{"ten dBm is ten mW", 10, 10},
		{"minus ten dBm", -10, 0.1},
		{"minus thirty dBm", -30, 0.001},
		{"twenty dBm", 20, 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DBmToMilliwatts(tt.dbm); !approxEqual(got, tt.want, 1e-12) {
				t.Errorf("DBmToMilliwatts(%v) = %v, want %v", tt.dbm, got, tt.want)
			}
		})
	}
}

func TestMilliwattsToDBm(t *testing.T) {
	tests := []struct {
		name string
		mw   float64
		want float64
	}{
		{"one mW", 1, 0},
		{"hundred mW", 100, 20},
		{"one microwatt", 0.001, -30},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MilliwattsToDBm(tt.mw); !approxEqual(got, tt.want, 1e-12) {
				t.Errorf("MilliwattsToDBm(%v) = %v, want %v", tt.mw, got, tt.want)
			}
		})
	}
}

func TestMilliwattsToDBmNonPositive(t *testing.T) {
	if got := MilliwattsToDBm(0); !math.IsInf(got, -1) {
		t.Errorf("MilliwattsToDBm(0) = %v, want -Inf", got)
	}
	if got := MilliwattsToDBm(-5); !math.IsInf(got, -1) {
		t.Errorf("MilliwattsToDBm(-5) = %v, want -Inf", got)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200) // keep within float precision comfort zone
		back := 10 * math.Log10(DBToLinear(db))
		return approxEqual(back, db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmRoundTrip(t *testing.T) {
	f := func(dbm float64) bool {
		dbm = math.Mod(dbm, 200)
		back := MilliwattsToDBm(DBmToMilliwatts(dbm))
		return approxEqual(back, dbm, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddPowersDBm(t *testing.T) {
	// Two equal powers add to +3.0103 dB above either.
	got := AddPowersDBm(-95, -95)
	want := -95 + 10*math.Log10(2)
	if !approxEqual(got, want, 1e-9) {
		t.Errorf("AddPowersDBm(-95,-95) = %v, want %v", got, want)
	}
	// A much weaker power barely moves the sum.
	got = AddPowersDBm(-50, -120)
	if math.Abs(got-(-50)) > 0.001 {
		t.Errorf("AddPowersDBm(-50,-120) = %v, want ~-50", got)
	}
}

func TestAddPowersDBmCommutative(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		return approxEqual(AddPowersDBm(a, b), AddPowersDBm(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(v float64) bool {
		c := Clamp(v, -1, 1)
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
