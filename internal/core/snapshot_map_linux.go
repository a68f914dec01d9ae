package core

import (
	"os"
	"syscall"
)

// mapSnapshot maps the file at path read-only, its pages read in up front
// (MAP_POPULATE): the decoder copies each byte once, from the page cache
// into the array it decodes to, with no buffer of the whole file allocated
// and filled first. release unmaps it. A checkpoint is replaced by rename,
// never rewritten in place, so the mapped file does not change under the
// decoder. A file the kernel will not map is read instead.
func mapSnapshot(path string) (data []byte, release func(), err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if size := st.Size(); size > 0 && size == int64(int(size)) {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err == nil {
			return data, func() { syscall.Munmap(data) }, nil
		}
	}
	data, err = os.ReadFile(path)
	return data, func() {}, err
}
