package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// Local is the production Backend: one real directory on the local file
// system. NewLocal creates the directory if needed.
type Local struct {
	dir string
}

// NewLocal opens (creating if necessary) a local-FS backend over dir.
func NewLocal(dir string) (*Local, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &Local{dir: abs}, nil
}

// Root returns the backend directory's absolute path.
func (l *Local) Root() string { return l.dir }

func (l *Local) path(name string) (string, error) {
	if err := ValidateName(name); err != nil {
		return "", err
	}
	return filepath.Join(l.dir, name), nil
}

// readOnlyFile adapts a read-only *os.File to the File interface; writes
// fail.
type readOnlyFile struct{ *os.File }

func (readOnlyFile) Write([]byte) (int, error) {
	return 0, errors.New("storage: file opened read-only")
}

func (readOnlyFile) WriteAt([]byte, int64) (int, error) {
	return 0, errors.New("storage: file opened read-only")
}

// ReadAt opens the named file read-only for random access; datasets on
// read-only media stay scannable.
func (l *Local) ReadAt(name string) (File, int64, error) {
	path, err := l.path(name)
	if err != nil {
		return nil, 0, err
	}
	osf, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, 0, err
	}
	return readOnlyFile{osf}, st.Size(), nil
}

// Create creates or truncates the named file for writing.
func (l *Local) Create(name string) (File, error) {
	path, err := l.path(name)
	if err != nil {
		return nil, err
	}
	return os.Create(path)
}

// Rename atomically replaces newName with oldName's file.
func (l *Local) Rename(oldName, newName string) error {
	oldPath, err := l.path(oldName)
	if err != nil {
		return err
	}
	newPath, err := l.path(newName)
	if err != nil {
		return err
	}
	return os.Rename(oldPath, newPath)
}

// Remove deletes the named file.
func (l *Local) Remove(name string) error {
	path, err := l.path(name)
	if err != nil {
		return err
	}
	return os.Remove(path)
}

// SyncDir fsyncs the directory itself, making prior renames, creates,
// and removes power-cut durable. File systems that reject directory
// fsync (some network and FUSE mounts) are tolerated: there is nothing
// more a caller could do there.
func (l *Local) SyncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) ||
			errors.Is(err, syscall.ENOTTY) {
			return nil
		}
		return err
	}
	return nil
}

// List returns the directory's file names in lexical order,
// subdirectories excluded.
func (l *Local) List() ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		names = append(names, de.Name())
	}
	return names, nil
}

var _ io.ReaderAt = (*os.File)(nil)
