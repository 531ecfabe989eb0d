package tsdb

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// TestMemFSMatchesOS plays one script of file calls on the operating
// system's filesystem and on a memFS, and requires the same outcome from
// each step: whether it failed (and with fs.ErrNotExist when the OS says
// so), what it read, and the whole tree after it.
func TestMemFSMatchesOS(t *testing.T) {
	type step struct {
		name string
		run  func(fsys fileSystem, p func(string) string) (string, error)
	}
	write := func(open func(string) (file, error), name, data string) (string, error) {
		f, err := open(name)
		if err != nil {
			return "", err
		}
		if _, err := io.WriteString(f, data); err != nil {
			return "", err
		}
		if err := f.Sync(); err != nil {
			return "", err
		}
		return "", f.Close()
	}
	read := func(fsys fileSystem, name string) (string, error) {
		b, err := fsys.ReadFile(name)
		return string(b), err
	}
	steps := []step{
		{"mkdir", func(fsys fileSystem, p func(string) string) (string, error) { return "", fsys.MkdirAll(p("a/b")) }},
		{"create", func(fsys fileSystem, p func(string) string) (string, error) {
			return write(fsys.Create, p("a/b/f"), "hello")
		}},
		{"append", func(fsys fileSystem, p func(string) string) (string, error) {
			if _, err := write(fsys.Append, p("a/b/f"), " world"); err != nil {
				return "", err
			}
			return read(fsys, p("a/b/f"))
		}},
		{"create truncates", func(fsys fileSystem, p func(string) string) (string, error) {
			if _, err := write(fsys.Create, p("a/b/g"), "0123456789"); err != nil {
				return "", err
			}
			if _, err := write(fsys.Create, p("a/b/g"), "xy"); err != nil {
				return "", err
			}
			return read(fsys, p("a/b/g"))
		}},
		{"read at and read", func(fsys fileSystem, p func(string) string) (string, error) {
			f, err := fsys.Open(p("a/b/f"))
			if err != nil {
				return "", err
			}
			defer f.Close()
			buf := make([]byte, 8)
			n, err := f.ReadAt(buf, 6)
			all, rerr := io.ReadAll(f)
			return fmt.Sprintf("%q %v %q %v", buf[:n], err, all, rerr), nil
		}},
		{"truncate", func(fsys fileSystem, p func(string) string) (string, error) {
			if err := fsys.Truncate(p("a/b/f"), 5); err != nil {
				return "", err
			}
			return read(fsys, p("a/b/f"))
		}},
		{"handle truncate and closed", func(fsys fileSystem, p func(string) string) (string, error) {
			f, err := fsys.Append(p("a/b/g"))
			if err != nil {
				return "", err
			}
			if err := f.Truncate(1); err != nil {
				return "", err
			}
			if err := f.Close(); err != nil {
				return "", err
			}
			_, werr := f.Write([]byte("z"))
			return fmt.Sprint(errors.Is(werr, fs.ErrClosed)), nil
		}},
		{"rename dir", func(fsys fileSystem, p func(string) string) (string, error) {
			return "", fsys.Rename(p("a/b"), p("a/c"))
		}},
		{"rename onto a dir", func(fsys fileSystem, p func(string) string) (string, error) {
			if _, err := write(fsys.Create, p("d/occupied"), ""); err == nil {
				return "", errors.New("created in a missing directory")
			}
			if err := fsys.MkdirAll(p("d/sub")); err != nil {
				return "", err
			}
			return "", fsys.Rename(p("a/c"), p("d/sub"))
		}},
		{"rename onto a removed dir's name", func(fsys fileSystem, p func(string) string) (string, error) {
			if err := fsys.Remove(p("d/sub")); err != nil {
				return "", err
			}
			return "", fsys.Rename(p("a/c"), p("d/sub"))
		}},
		{"rename a file", func(fsys fileSystem, p func(string) string) (string, error) {
			return "", fsys.Rename(p("d/sub/g"), p("d/h"))
		}},
		{"remove a non-empty dir", func(fsys fileSystem, p func(string) string) (string, error) {
			return "", fsys.Remove(p("d/sub"))
		}},
		{"stat", func(fsys fileSystem, p func(string) string) (string, error) {
			fi, err := fsys.Stat(p("d/sub/f"))
			if err != nil {
				return "", err
			}
			return fmt.Sprint(fi.Name(), fi.Size(), fi.IsDir()), nil
		}},
		{"an open handle outlives its name", func(fsys fileSystem, p func(string) string) (string, error) {
			f, err := fsys.Open(p("d/sub/f"))
			if err != nil {
				return "", err
			}
			defer f.Close()
			if err := fsys.RemoveAll(p("d/sub")); err != nil {
				return "", err
			}
			buf := make([]byte, 5)
			_, err = f.ReadAt(buf, 0)
			return string(buf), err
		}},
		{"sync a dir", func(fsys fileSystem, p func(string) string) (string, error) {
			f, err := fsys.Open(p("d"))
			if err != nil {
				return "", err
			}
			if err := f.Sync(); err != nil {
				return "", err
			}
			return "", f.Close()
		}},
		{"remove a file and an empty dir", func(fsys fileSystem, p func(string) string) (string, error) {
			if err := fsys.Remove(p("d/h")); err != nil {
				return "", err
			}
			return "", fsys.Remove(p("a"))
		}},
		{"missing", func(fsys fileSystem, p func(string) string) (string, error) {
			var out []string
			for _, err := range []error{
				fsys.Remove(p("nope")),
				fsys.Rename(p("nope"), p("d/x")),
				fsys.Truncate(p("nope"), 0),
				fsys.RemoveAll(p("nope")),
			} {
				out = append(out, fmt.Sprint(errors.Is(err, fs.ErrNotExist)))
			}
			_, err := fsys.ReadDir(p("nope"))
			_, serr := fsys.Stat(p("nope"))
			_, rerr := fsys.ReadFile(p("nope"))
			_, oerr := fsys.Open(p("nope"))
			for _, err := range []error{err, serr, rerr, oerr} {
				out = append(out, fmt.Sprint(errors.Is(err, fs.ErrNotExist)))
			}
			return strings.Join(out, " "), nil
		}},
	}

	root := t.TempDir()
	fsyss := []struct {
		name string
		fsys fileSystem
		p    func(string) string
	}{
		{"os", osFS{}, func(name string) string { return filepath.Join(root, name) }},
		{"mem", newMemFS(), func(name string) string { return name }},
	}
	for _, st := range steps {
		var outs [2]string
		var errs [2]error
		for i, f := range fsyss {
			got, err := st.run(f.fsys, f.p)
			tree, terr := fsTree(f.fsys, f.p(""))
			if terr != nil {
				t.Fatalf("%s: %s: listing: %v", st.name, f.name, terr)
			}
			outs[i] = fmt.Sprintf("%q, failed %v, not exist %v\n%s", got, err != nil, errors.Is(err, fs.ErrNotExist), tree)
			errs[i] = err
		}
		if outs[0] != outs[1] {
			t.Fatalf("%s:\nos (%v):  %s\nmem (%v): %s", st.name, errs[0], outs[0], errs[1], outs[1])
		}
	}
}

// fsTree lists every entry under dir, depth first: a directory as its
// path and a slash, a file as its path and contents.
func fsTree(fsys fileSystem, dir string) (string, error) {
	var b strings.Builder
	var walk func(rel string) error
	walk = func(rel string) error {
		entries, err := fsys.ReadDir(filepath.Join(dir, rel))
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := filepath.Join(rel, e.Name())
			if e.IsDir() {
				fmt.Fprintf(&b, "%s/\n", name)
				if err := walk(name); err != nil {
					return err
				}
				continue
			}
			data, err := fsys.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s %q\n", name, data)
		}
		return nil
	}
	err := walk("")
	return b.String(), err
}

// faultFS is the operating system's filesystem with one scripted fault:
// the k-th call (from 1) of kind fails with err, and every other call
// goes through. The kinds are "Write" and "Sync", counted over every file
// it opened, "Append" (opening a file to append to it) and "Rename".
type faultFS struct {
	osFS
	kind string
	k    int
	err  error

	mu    sync.Mutex
	calls int
}

// fail counts a call of kind and returns the scripted error when it is
// the k-th.
func (f *faultFS) fail(kind string) error {
	if kind != f.kind {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls == f.k {
		return f.err
	}
	return nil
}

func (f *faultFS) wrap(fl file, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return faultFile{fl, f}, nil
}

func (f *faultFS) Create(name string) (file, error) { return f.wrap(f.osFS.Create(name)) }
func (f *faultFS) Open(name string) (file, error)   { return f.wrap(f.osFS.Open(name)) }

func (f *faultFS) Append(name string) (file, error) {
	if err := f.fail("Append"); err != nil {
		return nil, err
	}
	return f.wrap(f.osFS.Append(name))
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.fail("Rename"); err != nil {
		return err
	}
	return f.osFS.Rename(oldpath, newpath)
}

// faultFile is a file of a faultFS.
type faultFile struct {
	file
	fs *faultFS
}

func (f faultFile) Write(p []byte) (int, error) {
	if err := f.fs.fail("Write"); err != nil {
		return 0, err
	}
	return f.file.Write(p)
}

func (f faultFile) Sync() error {
	if err := f.fs.fail("Sync"); err != nil {
		return err
	}
	return f.file.Sync()
}

// TestFaultFSFailsTheKthCall: only the scripted call fails, with the
// scripted error, and the calls around it go through.
func TestFaultFSFailsTheKthCall(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"Append", "Write", "Sync", "Rename"} {
		fsys := &faultFS{kind: kind, k: 2, err: syscall.EIO}
		var outcomes []bool
		for i := 0; i < 3; i++ {
			name := filepath.Join(dir, fmt.Sprintf("%s-%d", kind, i))
			f, err := fsys.Append(name)
			if err == nil {
				_, err = f.Write([]byte("x"))
				if serr := f.Sync(); err == nil {
					err = serr
				}
				if rerr := fsys.Rename(name, name+".moved"); err == nil {
					err = rerr
				}
				f.Close()
			}
			if err != nil && !errors.Is(err, syscall.EIO) {
				t.Fatalf("%s call %d: %v, want EIO", kind, i+1, err)
			}
			outcomes = append(outcomes, err != nil)
		}
		if fmt.Sprint(outcomes) != "[false true false]" {
			t.Errorf("%s: failures %v, want only the second call", kind, outcomes)
		}
	}
}
