// Durable records (DESIGN.md §17): the one path between the core and its
// optional KvStore backend. Each record kind is declared once, as a Kind:
// a key prefix, a key type whose unsigned-integer parts follow it (read off
// the type's wire field list), and a value in the wire codec. A failed put
// logs one warning naming the key; erase results are ignored; a restore
// walk skips, with one warning each, a record it cannot read, parse or
// decode, or that its kind rejects.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/log.h"
#include "core/wire.h"
#include "storage/kv_store.h"

namespace evostore::core::records {

/// Call `f` on each unsigned-integer part of a key, in key order: a type
/// with a wire field list (ModelId, SegmentKey) or a tuple-like type
/// contributes its members' parts.
template <typename T, typename F>
void for_each_part(T& key, F& f) {
  using U = std::remove_const_t<T>;
  auto members = [&](auto&... m) { (records::for_each_part(m, f), ...); };
  if constexpr (std::is_unsigned_v<U>) {
    f(key);
  } else if constexpr (wire::HasFields<U>) {
    std::apply(members, wire::Schema<U>::fields(key));
  } else {
    std::apply(members, key);
  }
}

/// One record kind. Its key is `<prefix><part>/<part>/...`, each part in
/// decimal, zero-padded to `pad` digits (so key order is numeric order).
template <typename Key, typename Value>
struct Kind {
  std::string_view prefix;
  size_t pad = 0;

  std::string key(const Key& k) const {
    std::string out(prefix);
    auto append = [&](auto part) {
      if (out.size() > prefix.size()) out.push_back('/');
      char digits[20];
      auto n = static_cast<size_t>(
          std::to_chars(digits, digits + sizeof(digits), part).ptr - digits);
      if (n < pad) out.append(pad - n, '0');
      out.append(digits, n);
    };
    records::for_each_part(k, append);
    return out;
  }

  /// The key `text` spells exactly, or nullopt.
  std::optional<Key> parse(std::string_view text) const {
    if (!text.starts_with(prefix)) return std::nullopt;
    const char* const start = text.data() + prefix.size();
    const char* const end = text.data() + text.size();
    const char* p = start;
    bool ok = true;
    auto read = [&](auto& part) {
      if (ok && p != start) ok = p != end && *p++ == '/';
      if (!ok) return;
      auto [next, ec] = std::from_chars(p, end, part);
      ok = ec == std::errc{};
      p = next;
    };
    Key k{};
    records::for_each_part(k, read);
    if (!ok || p != end) return std::nullopt;
    return k;
  }
};

template <typename V>
common::Result<V> decode(const common::Buffer& value) {
  common::Buffer buf = value.materialize();
  return wire::decode<V>(buf.dense_span());
}

/// A restore callback for one kind, `Status fn(key, value)`, as the walk
/// calls it: nullopt for a record of another kind, else the outcome.
template <typename K, typename V, typename Fn>
auto on(const Kind<K, V>& kind, Fn fn) {
  return [&kind, fn](std::string_view text, const common::Buffer& value)
             -> std::optional<common::Status> {
    if (!text.starts_with(kind.prefix)) return std::nullopt;
    std::optional<K> key = kind.parse(text);
    if (!key.has_value()) return common::Status::Corruption("malformed key");
    common::Result<V> decoded = decode<V>(value);
    if (!decoded.ok()) return decoded.status();
    return fn(*key, std::move(decoded).value());
  };
}

class Records {
 public:
  explicit Records(storage::KvStore* backend) : backend_(backend) {}

  bool attached() const { return backend_ != nullptr; }

  template <typename K, typename V>
  void put(const Kind<K, V>& kind, const std::type_identity_t<K>& key,
           const std::type_identity_t<V>& value) {
    if (backend_ == nullptr) return;
    std::string text = kind.key(key);
    common::Status st =
        backend_->put(text, common::Buffer::dense(wire::encode(value)));
    if (!st.ok()) EVO_WARN << "persist '" << text << "': " << st.to_string();
  }

  template <typename K, typename V>
  void erase(const Kind<K, V>& kind, const std::type_identity_t<K>& key) {
    if (backend_ != nullptr) (void)backend_->erase(kind.key(key));
  }

  /// One record's value; nullopt when absent or (with a warning) unreadable.
  template <typename K, typename V>
  std::optional<V> get(const Kind<K, V>& kind,
                       const std::type_identity_t<K>& key) const {
    std::string text = kind.key(key);
    common::Result<common::Buffer> value = backend_->get(text);
    common::Result<V> decoded = value.ok() ? decode<V>(*value) : value.status();
    if (decoded.ok()) return std::move(decoded).value();
    if (decoded.status().code() != common::ErrorCode::kNotFound) {
      EVO_WARN << "read '" << text << "': " << decoded.status().to_string();
    }
    return std::nullopt;
  }

  /// Every backend key, in lexicographic order (the KvStore contract).
  std::vector<std::string> keys() const { return backend_->keys(); }

  /// The restore walk: read each record named in `keys` once, in key order;
  /// the first callback (`on`) whose kind it is takes it. A record of no
  /// listed kind is ignored.
  template <typename... R>
  void restore(const std::vector<std::string>& keys, R... callbacks) const {
    for (const std::string& text : keys) {
      common::Result<common::Buffer> value = backend_->get(text);
      std::optional<common::Status> st = value.status();
      if (value.ok()) (void)((st = callbacks(text, *value)) || ...);
      if (st.has_value() && !st->ok()) {
        EVO_WARN << "restore: skipped record '" << text
                 << "': " << st->to_string();
      }
    }
  }

 private:
  storage::KvStore* backend_;
};

}  // namespace evostore::core::records
