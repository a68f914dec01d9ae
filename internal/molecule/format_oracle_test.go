package molecule

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gbpolar/internal/geom"
)

// The parsers as they stood before they stopped allocating per line,
// verbatim (strings.Fields on every line): the reference the new ones are
// held to, atom for atom and error for error.

func readPQROracle(r io.Reader) (*Molecule, error) {
	m := &Molecule{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "ATOM", "HETATM":
		case "REMARK", "TER", "END", "MODEL", "ENDMDL", "CRYST1", "HEADER", "TITLE", "COMPND":
			continue
		default:
			continue
		}
		if len(fields) < 6 {
			return nil, fmt.Errorf("pqr: line %d: too few fields (%d)", lineNo, len(fields))
		}
		// Last five fields: x y z q r.
		vals := make([]float64, 0, 5)
		for _, f := range fields[len(fields)-5:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("pqr: line %d: bad numeric field %q: %w", lineNo, f, err)
			}
			vals = append(vals, v)
		}
		m.Atoms = append(m.Atoms, Atom{
			Pos:    geom.Vec3{X: vals[0], Y: vals[1], Z: vals[2]},
			Charge: vals[3],
			Radius: vals[4],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pqr: %w", err)
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("pqr: no ATOM/HETATM records found")
	}
	return m, nil
}

func readXYZQROracle(r io.Reader) (*Molecule, error) {
	m := &Molecule{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if first {
			first = false
			// XYZ-style header: a single integer count.
			if len(fields) == 1 {
				if _, err := strconv.Atoi(fields[0]); err == nil {
					continue
				}
			}
		}
		if len(fields) < 5 {
			return nil, fmt.Errorf("xyzqr: line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		var vals [5]float64
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("xyzqr: line %d: bad field %q: %w", lineNo, fields[i], err)
			}
			vals[i] = v
		}
		m.Atoms = append(m.Atoms, Atom{
			Pos:    geom.Vec3{X: vals[0], Y: vals[1], Z: vals[2]},
			Charge: vals[3],
			Radius: vals[4],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("xyzqr: %w", err)
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("xyzqr: no atoms found")
	}
	return m, nil
}

var parserCorpus = []string{
	"",
	"\n\n",
	"REMARK only\nEND\n",
	"ATOM      1  N   MET A   1      27.340  24.430   2.614  0.1592  1.8240\n",
	"  ATOM 1 N MET A 1 1 2 3 0.5 1.5  \r\nHETATM 2 O HOH A 2 -1e1 +2.5 .5 -0.8 1.6\r\n",
	"ATOM 1 2 3 4 5\n",       // keyword + five numbers: the shortest record
	"ATOM 1 2 3 4\n",         // too few
	"ATOM\n",                 // keyword alone
	"ATOM 1 2\n",             //
	"ATOMS 1 2 3 4 5 6\n",    // not a keyword
	"ATOM100000 1 2 3 4 5\n", // fused keyword and serial: skipped, as before
	"atom 1 2 3 4 5\n",       // case matters
	"ATOM 1 N MET A 1 x y z q r\n",
	"ATOM 1 N MET A 1 1 2 3 4 bad\nATOM 1 N MET A 1 1 2 3 4 5\n",
	"ATOM 1 N MET A 1 bad 2 3 4 worse\n", // the leftmost bad field is reported
	"ATOM 1 N MET A 1 NaN Inf -Inf 1e400 0x1p-2\n",
	"ATOM\t1\tN\t1\t2\t3\t0.1\t1.2\n",
	"ATOM 1 N 1 2 3 0.1 1.2\vATOM\f\n",
	"TER\nATOM 1 1 2 3 4 5\nEND", // no trailing newline
	"3\n# c\n0 0 0 1 1.5\n1 1 1 -1 1.7\n2 2 2 0 1\n",
	"0 0 0 1 1.5\n7\n", // a count after the first line is a short record
	"7\n",
	"  # comment\n \t \n1 2 3 4 5 extra fields ignored\n",
	"1 2 3\n",
	"1 2 3 4 bad\n",
	"1 2 bad\n", // the count is checked before the numbers
	"x\n1 2 3 4 5\n",
	"+7\n1 2 3 4 5\n",
	"1 2 3 4 5\n#\n#x\n6 7 8 9 10",
}

func TestParsersMatchOracle(t *testing.T) {
	// A generated file, which is what the cold path loads.
	var pqr, xyzqr bytes.Buffer
	m := GenProtein("corpus", 500, 4)
	if err := WritePQR(&pqr, m); err != nil {
		t.Fatal(err)
	}
	if err := WriteXYZQR(&xyzqr, m); err != nil {
		t.Fatal(err)
	}
	corpus := append([]string{pqr.String(), xyzqr.String()}, parserCorpus...)
	for _, p := range []struct {
		name        string
		got, oracle func(io.Reader) (*Molecule, error)
	}{{"pqr", ReadPQR, readPQROracle}, {"xyzqr", ReadXYZQR, readXYZQROracle}} {
		for _, src := range corpus {
			got, gotErr := p.got(strings.NewReader(src))
			want, wantErr := p.oracle(strings.NewReader(src))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s %.40q: error %v, oracle %v", p.name, src, gotErr, wantErr)
				continue
			}
			// DeepEqual would call NaN != NaN; the formatted atoms compare by value.
			if !reflect.DeepEqual(fmt.Sprint(got), fmt.Sprint(want)) {
				t.Errorf("%s %.40q: molecule differs from the oracle's", p.name, src)
			}
		}
	}
}

// A record costs no garbage: what a load allocates does not grow with the
// line count beyond the atom array itself.
func TestReadPQRAllocsPerLine(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePQR(&buf, GenProtein("allocs", 2000, 5)); err != nil {
		t.Fatal(err)
	}
	src := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadPQR(bytes.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	})
	// The scanner, its buffer, the molecule and the doublings of Atoms.
	if allocs > 40 {
		t.Errorf("ReadPQR of 2000 atoms makes %.0f allocations, want a constant few (the old parser made 2 per line)", allocs)
	}
}

func BenchmarkReadPQR20k(b *testing.B) {
	var buf bytes.Buffer
	if err := WritePQR(&buf, GenProtein("bench", 20000, 1)); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	for _, p := range []struct {
		name string
		read func(io.Reader) (*Molecule, error)
	}{{"scan", ReadPQR}, {"oracle", readPQROracle}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := p.read(bytes.NewReader(src)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzReadPQR feeds arbitrary bytes to both parsers (`make fuzz`; the seeds
// are the oracle corpus above, the committed corpus in testdata/fuzz). Neither
// panics; each returns a molecule of at least one atom or an error, never
// both; what it reads its writer writes back readable, atom for atom; and on
// ASCII input each agrees with its oracle, atom for atom and error for error
// (the oracles split fields on Unicode white space, the parsers on ASCII's).
func FuzzReadPQR(f *testing.F) {
	for _, src := range parserCorpus {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		ascii := true
		for _, c := range src {
			ascii = ascii && c < 0x80
		}
		for _, p := range []struct {
			name         string
			read, oracle func(io.Reader) (*Molecule, error)
			write        func(io.Writer, *Molecule) error
		}{{"pqr", ReadPQR, readPQROracle, WritePQR}, {"xyzqr", ReadXYZQR, readXYZQROracle, WriteXYZQR}} {
			m, err := p.read(bytes.NewReader(src))
			if (err == nil) == (m == nil) || err == nil && m.NumAtoms() == 0 {
				t.Fatalf("%s: molecule %v beside error %v", p.name, m, err)
			}
			if ascii {
				want, wantErr := p.oracle(bytes.NewReader(src))
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(m) != fmt.Sprint(want) {
					t.Fatalf("%s: %v, %v; the oracle reads %v, %v", p.name, m, err, want, wantErr)
				}
			}
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := p.write(&out, m); err != nil {
				t.Fatal(err)
			}
			back, err := p.read(&out)
			if err != nil || back.NumAtoms() != m.NumAtoms() {
				t.Fatalf("%s: %d atoms written back read as %v, %v", p.name, m.NumAtoms(), back, err)
			}
		}
	})
}
