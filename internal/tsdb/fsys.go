package tsdb

import (
	"errors"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fileSystem is the seam under every file the storage engine touches:
// block directories, WAL segments and the directories holding them. A
// store with a data directory runs on osFS; one without runs the same
// engine on a memFS of its own.
type fileSystem interface {
	MkdirAll(dir string) error
	// Create opens name for writing from offset 0, creating or
	// truncating it; Append opens it for appending, creating it if
	// missing; Open opens a file (or a directory, to Sync it) for reading.
	Create(name string) (file, error)
	Append(name string) (file, error)
	Open(name string) (file, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory sorted by name.
	ReadDir(dir string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	Truncate(name string, size int64) error
}

// file is an open file of a fileSystem.
type file interface {
	io.Reader
	io.ReaderAt
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// closedFile is what a handle becomes once closed: every call on it
// fails with fs.ErrClosed, as on a closed *os.File.
var closedFile file = &memFile{closed: true}

// osFS is the operating system's filesystem.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (file, error) {
	return osOpen(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
}

func (osFS) Append(name string) (file, error) {
	return osOpen(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
}

func (osFS) Open(name string) (file, error) { return osOpen(name, os.O_RDONLY) }

// osOpen keeps a failed open's nil *os.File out of the file interface.
func osOpen(name string, flag int) (file, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Stat(name string) (fs.FileInfo, error)     { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error      { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) RemoveAll(path string) error               { return os.RemoveAll(path) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }

// memFS is an in-memory filesystem: a file is a byte slice, a rename (a
// directory's too) is one atomic map update, and Sync does nothing.
// Paths are cleaned and relative to an implicit root ".". An open handle
// keeps its file's bytes after the name is removed, as on Unix.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	dirs  map[string]bool
}

// memData is one file's contents, shared by every handle on it.
type memData struct {
	mu sync.RWMutex
	b  []byte
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memData{}, dirs: map[string]bool{".": true}}
}

func memErr(op, path string, err error) error { return &fs.PathError{Op: op, Path: path, Err: err} }

// parentLocked checks that name's parent is a directory.
func (m *memFS) parentLocked(op, name string) error {
	if !m.dirs[filepath.Dir(name)] {
		return memErr(op, name, fs.ErrNotExist)
	}
	return nil
}

func (m *memFS) MkdirAll(dir string) error {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := dir; !m.dirs[p]; p = filepath.Dir(p) {
		if _, ok := m.files[p]; ok {
			return memErr("mkdir", p, syscall.ENOTDIR)
		}
	}
	for p := dir; !m.dirs[p]; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) Create(name string) (file, error) { return m.open("create", name, true, false) }
func (m *memFS) Append(name string) (file, error) { return m.open("append", name, false, true) }

// open opens a file for writing, creating it if missing; trunc empties
// it, and appending writes at its end whatever the handle's offset.
func (m *memFS) open(op, name string, trunc, appending bool) (file, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[name] {
		return nil, memErr(op, name, syscall.EISDIR)
	}
	if err := m.parentLocked(op, name); err != nil {
		return nil, err
	}
	d := m.files[name]
	if d == nil {
		d = &memData{}
		m.files[name] = d
	} else if trunc {
		d.mu.Lock()
		d.b = nil
		d.mu.Unlock()
	}
	return &memFile{d: d, appending: appending}, nil
}

func (m *memFS) Open(name string) (file, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[name] {
		return &memFile{}, nil
	}
	d := m.files[name]
	if d == nil {
		return nil, memErr("open", name, fs.ErrNotExist)
	}
	return &memFile{d: d}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	d := m.files[name]
	m.mu.Unlock()
	if d == nil {
		return nil, memErr("open", name, fs.ErrNotExist)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return slices.Clone(d.b), nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		if _, ok := m.files[dir]; ok {
			return nil, memErr("readdir", dir, syscall.ENOTDIR)
		}
		return nil, memErr("open", dir, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), dir: true}))
		}
	}
	for p, d := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: d.size()}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	if d := m.files[name]; d != nil {
		return memInfo{name: filepath.Base(name), size: d.size()}, nil
	}
	return nil, memErr("stat", name, fs.ErrNotExist)
}

// Rename moves a file, or a directory with everything under it, in one
// step. As os.Rename does, it refuses to replace a directory.
func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[oldpath]
	if d == nil && !m.dirs[oldpath] {
		return memErr("rename", oldpath, fs.ErrNotExist)
	}
	if m.dirs[newpath] {
		return memErr("rename", newpath, syscall.EEXIST)
	}
	if err := m.parentLocked("rename", newpath); err != nil {
		return err
	}
	if d != nil {
		delete(m.files, oldpath)
		m.files[newpath] = d
		return nil
	}
	if _, ok := m.files[newpath]; ok {
		return memErr("rename", newpath, syscall.ENOTDIR)
	}
	if strings.HasPrefix(newpath, oldpath+string(filepath.Separator)) {
		return memErr("rename", newpath, syscall.EINVAL)
	}
	moved := func(p string) (string, bool) {
		if p == oldpath {
			return newpath, true
		}
		if rest, ok := strings.CutPrefix(p, oldpath+string(filepath.Separator)); ok {
			return filepath.Join(newpath, rest), true
		}
		return "", false
	}
	dirs, files := map[string]bool{}, map[string]*memData{}
	for p := range m.dirs {
		if q, ok := moved(p); ok {
			delete(m.dirs, p)
			dirs[q] = true
		}
	}
	for p, d := range m.files {
		if q, ok := moved(p); ok {
			delete(m.files, p)
			files[q] = d
		}
	}
	maps.Copy(m.dirs, dirs)
	maps.Copy(m.files, files)
	return nil
}

// emptyLocked reports whether directory dir has no entries.
func (m *memFS) emptyLocked(dir string) bool {
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			return false
		}
	}
	for p := range m.files {
		if filepath.Dir(p) == dir {
			return false
		}
	}
	return true
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		delete(m.files, name)
		return nil
	}
	if !m.dirs[name] {
		return memErr("remove", name, fs.ErrNotExist)
	}
	if !m.emptyLocked(name) {
		return memErr("remove", name, syscall.ENOTEMPTY)
	}
	delete(m.dirs, name)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	path = filepath.Clean(path)
	if path == "." {
		return memErr("removeall", path, syscall.EINVAL)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	under := path + string(filepath.Separator)
	delete(m.files, path)
	for p := range m.files {
		if strings.HasPrefix(p, under) {
			delete(m.files, p)
		}
	}
	delete(m.dirs, path)
	for p := range m.dirs {
		if strings.HasPrefix(p, under) {
			delete(m.dirs, p)
		}
	}
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	d := m.files[name]
	m.mu.Unlock()
	if d == nil {
		return memErr("truncate", name, fs.ErrNotExist)
	}
	d.truncate(size)
	return nil
}

func (d *memData) size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.b))
}

func (d *memData) truncate(size int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size <= int64(len(d.b)) {
		d.b = d.b[:size]
	} else {
		d.b = append(d.b, make([]byte, size-int64(len(d.b)))...)
	}
}

// memFile is a handle on a memFS file; d is nil for a directory, which
// can only be synced and closed.
type memFile struct {
	d         *memData
	off       int64 // where the next Read or Write starts
	appending bool
	wrote     bool
	closed    bool
}

func (f *memFile) data(op string) (*memData, error) {
	if f.closed {
		return nil, memErr(op, "", fs.ErrClosed)
	}
	if f.d == nil {
		return nil, memErr(op, "", syscall.EISDIR)
	}
	return f.d, nil
}

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	d, err := f.data("read")
	if err != nil {
		return 0, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off >= int64(len(d.b)) {
		return 0, io.EOF
	}
	n := copy(p, d.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	d, err := f.data("write")
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f.appending {
		f.off = int64(len(d.b))
	}
	if gap := f.off - int64(len(d.b)); gap > 0 {
		d.b = append(d.b, make([]byte, gap)...)
	}
	n := copy(d.b[f.off:], p)
	d.b = append(d.b, p[n:]...)
	f.off += int64(len(p))
	f.wrote = true
	return len(p), nil
}

func (f *memFile) Sync() error {
	_, err := f.data("sync")
	if errors.Is(err, syscall.EISDIR) {
		return nil
	}
	return err
}

func (f *memFile) Truncate(size int64) error {
	d, err := f.data("truncate")
	if err != nil {
		return err
	}
	d.truncate(size)
	return nil
}

// Close releases the handle. A handle that wrote gives the file's spare
// capacity back, so a finished file holds exactly its bytes.
func (f *memFile) Close() error {
	if f.closed {
		return memErr("close", "", fs.ErrClosed)
	}
	f.closed = true
	if f.wrote {
		f.d.mu.Lock()
		if cap(f.d.b) > len(f.d.b) {
			f.d.b = slices.Clone(f.d.b)
		}
		f.d.mu.Unlock()
	}
	return nil
}

// memInfo describes a memFS file or directory.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }
