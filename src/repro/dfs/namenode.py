"""Namenode: the DFS namespace."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dfs.block import Block
from repro.errors import DfsError, FileAlreadyExistsError, FileNotFoundInDfsError


@dataclass(frozen=True)
class DfsFile:
    """An immutable file: an ordered list of blocks."""

    path: str
    blocks: tuple[Block, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_bytes(self) -> int:
        return sum(b.num_bytes for b in self.blocks)

    @property
    def num_records(self) -> int:
        return sum(b.num_records for b in self.blocks)


def normalize_path(path: str) -> str:
    """Canonical form: leading slash, no trailing slash, collapsed separators."""
    if not path or path.isspace():
        raise DfsError("empty DFS path")
    parts = [part for part in path.split("/") if part]
    if not parts:
        raise DfsError(f"invalid DFS path {path!r}")
    return "/" + "/".join(parts)


@dataclass
class NameNode:
    """Tracks the file namespace. Single instance per DFS (as in HDFS)."""

    _files: dict[str, DfsFile] = field(default_factory=dict)

    def create_file(self, path: str, blocks: list[Block]) -> DfsFile:
        canonical = normalize_path(path)
        if canonical in self._files:
            raise FileAlreadyExistsError(f"DFS path already exists: {canonical}")
        dfs_file = DfsFile(path=canonical, blocks=tuple(blocks))
        self._files[canonical] = dfs_file
        return dfs_file

    def get_file(self, path: str) -> DfsFile:
        canonical = normalize_path(path)
        try:
            return self._files[canonical]
        except KeyError:
            raise FileNotFoundInDfsError(f"no such DFS file: {canonical}") from None

    def exists(self, path: str) -> bool:
        return normalize_path(path) in self._files

    def delete(self, path: str) -> None:
        canonical = normalize_path(path)
        if canonical not in self._files:
            raise FileNotFoundInDfsError(f"no such DFS file: {canonical}")
        del self._files[canonical]

    def list_files(self, prefix: str = "/") -> list[str]:
        canonical = normalize_path(prefix) if prefix != "/" else "/"
        if canonical == "/":
            return sorted(self._files)
        return sorted(
            path
            for path in self._files
            if path == canonical or path.startswith(canonical + "/")
        )
