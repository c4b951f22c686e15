#include "xml/writer.h"

namespace xee::xml {
namespace {

void EscapeInto(std::string_view raw, std::string* out) {
  for (char c : raw) {
    switch (c) {
      case '<':
        *out += "&lt;";
        break;
      case '>':
        *out += "&gt;";
        break;
      case '&':
        *out += "&amp;";
        break;
      case '"':
        *out += "&quot;";
        break;
      default:
        *out += c;
    }
  }
}

void WriteNode(const Document& doc, NodeId n, const WriteOptions& options,
               size_t depth, std::string* out) {
  auto indent = [&] {
    if (options.pretty) out->append(2 * depth, ' ');
  };
  indent();
  *out += '<';
  *out += doc.TagName(n);
  for (const Attribute& a : doc.Attributes(n)) {
    *out += ' ';
    *out += a.name;
    *out += "=\"";
    EscapeInto(a.value, out);
    *out += '"';
  }
  const Document::ChildRange children = doc.Children(n);
  const std::string_view text = doc.Text(n);
  if (children.empty() && text.empty()) {
    *out += "/>";
    if (options.pretty) *out += '\n';
    return;
  }
  *out += '>';
  EscapeInto(text, out);
  if (!children.empty()) {
    if (options.pretty) *out += '\n';
    for (NodeId c : children) WriteNode(doc, c, options, depth + 1, out);
    indent();
  }
  *out += "</";
  *out += doc.TagName(n);
  *out += '>';
  if (options.pretty) *out += '\n';
}

}  // namespace

std::string WriteXml(const Document& doc, const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    out += options.pretty ? "\n" : "";
  }
  if (!doc.empty()) WriteNode(doc, doc.root(), options, 0, &out);
  return out;
}

size_t SerializedSize(const Document& doc, const WriteOptions& options) {
  // Straightforward: serialize and measure. Documents in this project are
  // at most tens of MB, so the temporary is acceptable.
  return WriteXml(doc, options).size();
}

}  // namespace xee::xml
