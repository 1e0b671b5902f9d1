package table

import "testing"

// Word/WordCount/SetWord are the codec-facing accessors: reading must
// expose the bits LSB first, and SetWord must mask bits beyond Len so a
// hostile final word cannot carry phantom bits.
func TestBitVectorWordAccessors(t *testing.T) {
	v := NewBitVector(70)
	v.Set(0)
	v.Set(63)
	v.Set(69)
	if got, want := v.WordCount(), 2; got != want {
		t.Fatalf("WordCount = %d, want %d", got, want)
	}
	for i, want := range []uint64{1 | 1<<63, 1 << 5} {
		if v.Word(i) != want {
			t.Fatalf("Word(%d) = %#x, want %#x", i, v.Word(i), want)
		}
	}

	u := NewBitVector(70)
	for i := 0; i < u.WordCount(); i++ {
		u.SetWord(i, v.Word(i))
	}
	for i := 0; i < 70; i++ {
		if u.Get(i) != v.Get(i) {
			t.Fatalf("bit %d diverged after SetWord rebuild", i)
		}
	}
}

func TestBitVectorSetWordMasksPadding(t *testing.T) {
	v := NewBitVector(70) // 6 valid bits in the final word
	v.SetWord(1, ^uint64(0))
	if got := v.Word(1); got != (1<<6)-1 {
		t.Fatalf("final word = %#x, want %#x (padding must be masked)", got, uint64((1<<6)-1))
	}
	if v.Count() != 6 {
		t.Fatalf("Count = %d, want 6", v.Count())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SetWord did not panic")
		}
	}()
	v.SetWord(2, 1)
}
