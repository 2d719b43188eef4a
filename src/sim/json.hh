/**
 * @file
 * Minimal stable-byte JSON emission, shared by every report the
 * simulator renders (FleetReport, ForensicsReport, ...).
 *
 * Keys are emitted in call order, numbers via fixed printf formats,
 * so a document is byte-stable for identical report contents — the
 * property the golden-digest tests pin. One writer, one
 * well-formedness test (tests/sim/json_test.cc); report code never
 * hand-rolls commas again.
 *
 * Usage:
 *   std::string out;
 *   sim::JsonWriter j(out);
 *   j.open('{');
 *   j.key("answer"); j.u64(42);
 *   j.key("items"); j.open('[');
 *   j.elem(); j.str("a");
 *   j.elem(); j.str("b");
 *   j.close(']');
 *   j.close('}');
 */

#ifndef RSSD_SIM_JSON_HH
#define RSSD_SIM_JSON_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "sim/stats.hh"

namespace rssd::sim {

class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    void
    raw(const char *s)
    {
        out_ += s;
    }

    void
    key(const char *name)
    {
        sep();
        out_ += '"';
        out_ += name;
        out_ += "\":";
        fresh_ = true;
    }

    void
    str(const std::string &v)
    {
        out_ += '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                out_ += c;
        }
        out_ += '"';
        fresh_ = false; // a value ends the pair: next key needs ','
    }

    void
    u64(std::uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(v));
        out_ += buf;
        fresh_ = false;
    }

    void
    f64(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out_ += buf;
        fresh_ = false;
    }

    /** One u64 pair per row of a field table (sim/stats.hh), in
     *  row order. */
    template <typename S, std::size_t N>
    void
    fields(const S &s, const U64Field<S> (&table)[N])
    {
        for (const U64Field<S> &f : table) {
            key(f.key);
            u64(s.*f.member);
        }
    }

    void
    boolean(bool v)
    {
        out_ += v ? "true" : "false";
        fresh_ = false;
    }

    void
    open(char c)
    {
        out_ += c;
        fresh_ = true;
    }

    void
    close(char c)
    {
        out_ += c;
        fresh_ = false;
    }

    /** Start an array/object element (comma management). */
    void
    elem()
    {
        sep();
        fresh_ = true;
    }

  private:
    void
    sep()
    {
        if (!fresh_)
            out_ += ',';
        fresh_ = false;
    }

    std::string &out_;
    bool fresh_ = true;
};

} // namespace rssd::sim

#endif // RSSD_SIM_JSON_HH
