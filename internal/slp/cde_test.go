package slp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func figure1DB() *DB {
	a1, a2, a3, _, _, _, _, _ := figure1()
	db := NewDB()
	db.Add("D1", Balance(a1))
	db.Add("D2", Balance(a2))
	db.Add("D3", Balance(a3))
	return db
}

func TestCDEBasicOps(t *testing.T) {
	db := figure1DB()
	d1 := "ababbcabca"
	d2 := "bcabcaabbca"

	cases := []struct {
		expr string
		want string
	}{
		{"D1", d1},
		{"concat(D2,D1)", d2 + d1},
		{"extract(D1,3,6)", d1[2:6]},
		{"extract(D1,1,10)", d1},
		{"delete(D1,3,6)", d1[:2] + d1[6:]},
		{"delete(D1,1,10)", ""},
		{"insert(D1,D2,1)", d2 + d1},
		{"insert(D1,D2,11)", d1 + d2},
		{"insert(D1,D2,3)", d1[:2] + d2 + d1[2:]},
		{"copy(D1,2,4,1)", d1[1:4] + d1},
		{"copy(D1,1,3,11)", d1 + d1[0:3]},
		{"concat(extract(D1,1,2),delete(D2,2,10))", d1[:2] + "b" + "a"},
	}
	for _, c := range cases {
		e, err := ParseCDE(c.expr)
		if err != nil {
			t.Errorf("ParseCDE(%q): %v", c.expr, err)
			continue
		}
		n, err := db.Eval(e)
		if err != nil {
			t.Errorf("Eval(%q): %v", c.expr, err)
			continue
		}
		if got := string(n.Bytes()); got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.expr, got, c.want)
		}
		if n != nil && !n.StronglyBalanced() {
			t.Errorf("Eval(%q) result not strongly balanced", c.expr)
		}
	}
}

func TestCDEPaperExample(t *testing.T) {
	// The paper's running example (Section 4): "cut the subword from
	// position 5 to 21 from document D7, insert it at position 12 into
	// document D3, append this document to D1."
	db := NewDB()
	d7 := strings.Repeat("abcde", 10)
	d3 := strings.Repeat("xyz", 8)
	d1 := "header:"
	db.Add("D7", Balance(Compress([]byte(d7))))
	db.Add("D3", Balance(Compress([]byte(d3))))
	db.Add("D1", FromBytes([]byte(d1)))

	expr, err := ParseCDE("concat(D1, insert(D3, extract(D7,5,21), 12))")
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.EvalAndAdd("D8", expr)
	if err != nil {
		t.Fatal(err)
	}
	want := d1 + d3[:11] + d7[4:21] + d3[11:]
	if got := string(n.Bytes()); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if _, ok := db.Get("D8"); !ok {
		t.Error("D8 not stored")
	}
	if len(db.Names()) != 4 {
		t.Errorf("Names = %v", db.Names())
	}
}

func TestCDEErrors(t *testing.T) {
	db := figure1DB()
	bad := []string{
		"D9",               // unknown document
		"extract(D1,0,3)",  // position < 1
		"extract(D1,3,99)", // j out of range
		"insert(D1,D2,99)", // insert position out of range
		"copy(D1,2,4,99)",  // paste position out of range
		"delete(D1,5,2)",   // inverted range
	}
	for _, src := range bad {
		e, err := ParseCDE(src)
		if err != nil {
			continue // parse error also acceptable for malformed input
		}
		if _, err := db.Eval(e); err == nil {
			t.Errorf("Eval(%q) accepted", src)
		}
	}
}

func TestCDEErrorsAreTyped(t *testing.T) {
	db := figure1DB()
	cases := []struct {
		src  string
		code string
	}{
		{"D9", CDEUnknownDocCode},
		{"extract(D9,1,2)", CDEUnknownDocCode},
		{"extract(D1,0,3)", CDERangeCode},
		{"extract(D1,3,99)", CDERangeCode},
		{"delete(D1,5,2)", CDERangeCode},
		{"insert(D1,D2,99)", CDERangeCode},
		{"copy(D1,2,4,99)", CDERangeCode},
	}
	for _, c := range cases {
		e, err := ParseCDE(c.src)
		if err != nil {
			t.Fatalf("ParseCDE(%q): %v", c.src, err)
		}
		_, err = db.Eval(e)
		var ce *CDEError
		if !errors.As(err, &ce) {
			t.Errorf("Eval(%q) = %v, want *CDEError", c.src, err)
			continue
		}
		if ce.Code != c.code {
			t.Errorf("Eval(%q) code = %s, want %s", c.src, ce.Code, c.code)
		}
		if ce.Offset != -1 {
			t.Errorf("Eval(%q) offset = %d, want -1 for an eval error", c.src, ce.Offset)
		}
		if ce.Op == "" || ce.Message == "" || ce.Hint == "" {
			t.Errorf("Eval(%q) error lacks op/message/hint: %+v", c.src, ce)
		}
	}
}

func TestCDEParseErrorsAreTyped(t *testing.T) {
	for _, src := range []string{
		"", "concat(D1)", "extract(D1,a,b)", "concat(D1,D2", "foo(D1,2,3)",
		"extract(D1,2,3)x", "extract(D1,99999999999999999999,3)",
	} {
		_, err := ParseCDE(src)
		var ce *CDEError
		if !errors.As(err, &ce) {
			t.Errorf("ParseCDE(%q) = %v, want *CDEError", src, err)
			continue
		}
		if ce.Code != CDEParseCode {
			t.Errorf("ParseCDE(%q) code = %s, want %s", src, ce.Code, CDEParseCode)
		}
		if ce.Offset < 0 || ce.Offset > len(src) {
			t.Errorf("ParseCDE(%q) offset = %d outside the source", src, ce.Offset)
		}
	}
}

func TestCDEParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "concat(D1)", "extract(D1,a,b)", "concat(D1,D2", "foo(D1,2,3)",
		"extract(D1,2,3)x",
	} {
		if _, err := ParseCDE(src); err == nil {
			t.Errorf("ParseCDE(%q) accepted", src)
		}
	}
}

func TestCDESizeAndString(t *testing.T) {
	e, err := ParseCDE("insert(delete(D3,2,5), extract(D7,5,21), 12)")
	if err != nil {
		t.Fatal(err)
	}
	if SizeOf(e) != 5 {
		t.Errorf("SizeOf = %d, want 5", SizeOf(e))
	}
	round, err := ParseCDE(e.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", e.String(), err)
	}
	if round.String() != e.String() {
		t.Error("String not stable")
	}
}

func TestCDEUpdatePreservesBalanceChain(t *testing.T) {
	// A long chain of edits must keep the SLP strongly balanced — the
	// invariant behind the O(|φ|·log d) bound of Section 4.3.
	db := NewDB()
	db.Add("D", FromBytes([]byte(strings.Repeat("abcd", 64))))
	cur := "D"
	doc := strings.Repeat("abcd", 64)
	for i := 0; i < 40; i++ {
		var src string
		switch i % 4 {
		case 0:
			src = "copy(" + cur + ",1,8,5)"
			doc = doc[:4] + doc[0:8] + doc[4:]
		case 1:
			src = "delete(" + cur + ",2,9)"
			doc = doc[:1] + doc[9:]
		case 2:
			src = "concat(" + cur + "," + cur + ")"
			doc = doc + doc
		case 3:
			src = "extract(" + cur + ",2,33)"
			doc = doc[1:33]
		}
		e, err := ParseCDE(src)
		if err != nil {
			t.Fatal(err)
		}
		next := fmt.Sprintf("D%d", i)
		n, err := db.EvalAndAdd(next, e)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, src, err)
		}
		if string(n.Bytes()) != doc {
			t.Fatalf("step %d: content mismatch", i)
		}
		if n != nil && !n.StronglyBalanced() {
			t.Fatalf("step %d: unbalanced", i)
		}
		cur = next
	}
}

// TestCDEUpdateSharesAllButLogNodes pins E7's claim, a CDE expression φ
// evaluates in O(|φ|·log d) on a strongly balanced SLP, by counting the
// nodes the result does not share with its operand: at most 2·|φ|·log₂ n
// at every n, where a rebuild of the result would create Θ(|S|). D
// repeats a random 1 KiB block, so |S| > 1024 and no rebuild is small.
func TestCDEUpdateSharesAllButLogNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	block := make([]byte, 1024)
	for i := range block {
		block[i] = "abcd"[rng.Intn(4)]
	}
	for _, exp := range []int{12, 16, 20} {
		n := int64(1) << exp
		d := Repeat(FromBytes(block), n/1024)
		db := NewDB()
		db.Add("D", d)
		e, err := ParseCDE(fmt.Sprintf("insert(delete(D,%d,%d), extract(D,1,64), %d)", n/4, n/4+999, n/2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		old := map[*Node]bool{}
		reach(d, old)
		all := map[*Node]bool{}
		reach(res, all)
		fresh := 0
		for m := range all {
			if !old[m] {
				fresh++
			}
		}
		bound := 2 * SizeOf(e) * exp
		t.Logf("n=2^%d: |S|=%d, %d fresh nodes, bound %d", exp, len(old), fresh, bound)
		if fresh > bound {
			t.Fatalf("n=2^%d: the result has %d nodes not shared with D, want at most 2·|φ|·log₂ n = %d", exp, fresh, bound)
		}
		if !res.StronglyBalanced() {
			t.Fatalf("n=2^%d: result not strongly balanced", exp)
		}
		if res.Len() != n-1000+64 {
			t.Fatalf("n=2^%d: result length %d, want %d", exp, res.Len(), n-1000+64)
		}
	}
}

// reach adds the distinct nodes of the DAG under n to seen.
func reach(n *Node, seen map[*Node]bool) {
	if n == nil || seen[n] {
		return
	}
	seen[n] = true
	reach(n.left, seen)
	reach(n.right, seen)
}

func TestCDEStringsAllOps(t *testing.T) {
	cases := []string{
		"D1",
		"concat(D1,D2)",
		"extract(D1,2,3)",
		"delete(D1,2,3)",
		"insert(D1,D2,4)",
		"copy(D1,2,3,4)",
	}
	for _, src := range cases {
		e, err := ParseCDE(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if e.String() != src {
			t.Errorf("String(%q) = %q", src, e.String())
		}
	}
	if SizeOf(CDEConcat{L: DocRef{Name: "a"}, R: DocRef{Name: "b"}}) != 3 {
		t.Error("SizeOf concat wrong")
	}
}

func TestNodeAccessors(t *testing.T) {
	n := Pair(Leaf('a'), Leaf('b'))
	if n.Left().LeafByte() != 'a' || n.Right().LeafByte() != 'b' {
		t.Error("Left/Right wrong")
	}
	if n.String() != "SLP{len=2, size=3, ord=2}" {
		t.Errorf("String = %q", n.String())
	}
	var nilNode *Node
	if nilNode.Order() != 0 || nilNode.Len() != 0 || nilNode.Bal() != 0 {
		t.Error("nil node accessors wrong")
	}
	if Leaf('a').Bal() != 0 {
		t.Error("leaf Bal wrong")
	}
}
