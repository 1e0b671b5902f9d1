package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSharePackages are the layers a CPU sample can be attributed to;
// anything else under hypercube/ or the standard library is "other".
var cpuSharePackages = map[string]bool{
	"id": true, "table": true, "msg": true, "core": true, "sim": true,
	"overlay": true, "wire": true, "tcptransport": true, "guard": true,
	"liveness": true, "antientropy": true, "sampling": true, "dht": true,
	"obs": true,
}

// cpuShares reads a gzipped profile.proto CPU profile and returns, per
// layer, the share of samples whose leaf frame lies in that package.
// It reads only what that needs: samples, locations, functions and the
// string table.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		leaves    []uint64 // per sample: leaf location ID
		counts    []int64  // per sample: first value (sample count)
		locFunc   = map[uint64]uint64{}
		funcName  = map[uint64]uint64{}
		stringTab []string
	)
	err = eachField(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			if err := eachField(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, d)
				case 2:
					vals = appendPacked(vals, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				leaves = append(leaves, locs[0])
				counts = append(counts, int64(vals[0]))
			}
		case 4: // Location: id = 1, line = 4 {function_id = 1}; line[0] is the innermost frame
			var id, fn uint64
			seen := false
			if err := eachField(data, func(f int, v uint64, d []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !seen:
					seen = true
					return eachField(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function: id = 1, name = 2 (string table index)
			var id, name uint64
			if err := eachField(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			stringTab = append(stringTab, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64)
	var total float64
	for i, loc := range leaves {
		idx := funcName[locFunc[loc]]
		if idx >= uint64(len(stringTab)) {
			return nil, fmt.Errorf("function name index %d outside the string table", idx)
		}
		shares[layerOf(stringTab[idx])] += float64(counts[i])
		total += float64(counts[i])
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// layerOf maps a function's full name to the layer it belongs to.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "hypercube/internal/"):
		if base := pkg[slash+1:]; cpuSharePackages[base] {
			return base
		}
	}
	return "other"
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (v uint64, n int, err error) {
	for shift := uint(0); n < len(b) && shift < 64; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint field's value, data a length-delimited field's bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n, err = varint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := varint(b)
			if err != nil {
				return err
			}
			if uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, which arrive
// either one by one (v) or packed into data.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n, err := varint(data)
		if err != nil {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
