#include "deploy/archive.hpp"

#include <cstring>

#include "core/hash.hpp"

namespace autonet::deploy {

namespace {

constexpr char kMagic[8] = {'A', 'N', 'K', 'A', 'R', '1', '\0', '\0'};

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint64_t get_u64(std::string_view in, std::size_t& pos) {
  if (pos + 8 > in.size()) throw ArchiveError("archive truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + i])) << (8 * i);
  }
  pos += 8;
  return v;
}

}  // namespace

std::string pack(const render::ConfigTree& tree) {
  std::string payload;
  put_u64(payload, tree.file_count());
  for (const auto& [path, content] : tree) {
    put_u64(payload, path.size());
    payload += path;
    put_u64(payload, content.size());
    payload += content;
  }
  std::string out(kMagic, sizeof kMagic);
  put_u64(out, fnv1a(payload));
  out += payload;
  return out;
}

render::ConfigTree unpack(const std::string& blob) {
  if (blob.size() < sizeof(kMagic) + 8 ||
      std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) {
    throw ArchiveError("not an autonet archive");
  }
  std::size_t pos = sizeof kMagic;
  std::uint64_t want = get_u64(blob, pos);
  std::string_view payload(blob.data() + pos, blob.size() - pos);
  if (fnv1a(payload) != want) throw ArchiveError("archive checksum mismatch");

  render::ConfigTree tree;
  std::uint64_t count = get_u64(blob, pos);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t path_len = get_u64(blob, pos);
    if (pos + path_len > blob.size()) throw ArchiveError("archive truncated");
    std::string path = blob.substr(pos, path_len);
    pos += path_len;
    std::uint64_t content_len = get_u64(blob, pos);
    if (pos + content_len > blob.size()) throw ArchiveError("archive truncated");
    tree.put(std::move(path), blob.substr(pos, content_len));
    pos += content_len;
  }
  return tree;
}

}  // namespace autonet::deploy
